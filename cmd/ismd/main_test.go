package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prism/internal/isruntime/metrics"
	"prism/internal/trace"
)

// spillFlagSet mirrors the spill-related subset of main's flag
// definitions; validateOverflowFlags only inspects which flags were
// explicitly set, so names are all that must stay in sync.
func spillFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("ismd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("overflow", "drop-oldest", "")
	fs.String("spill-dir", "", "")
	fs.Int("spill-hot", 1<<14, "")
	fs.Int("spill-segment", 1<<13, "")
	fs.Int("spill-warm", 8, "")
	fs.Int64("compact-budget", 0, "")
	fs.String("spool", "", "")
	return fs
}

// modeFlagSet mirrors the federation-related subset of main's flag
// definitions for validateModeFlags, which likewise only inspects
// which flags were explicitly set.
func modeFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("ismd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Bool("relay", false, "")
	fs.Int("downstreams", 0, "")
	fs.Duration("max-stall", 0, "")
	fs.Int("lane-ring", 0, "")
	fs.String("resume-spool", "", "")
	fs.String("uplink", "", "")
	fs.Int("uplink-node", 1, "")
	fs.Int("uplink-batch", 512, "")
	fs.Int("uplink-window", 0, "")
	fs.Duration("mark-interval", 0, "")
	fs.Bool("miso", false, "")
	fs.String("spool", "", "")
	return fs
}

// TestValidateOverflowFlags pins the satellite contract: every spill
// tuning flag is rejected unless -overflow spill selected the tiered
// store, defaults never trip the check, and the error names the
// offending flags.
func TestValidateOverflowFlags(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		overflow string
		wantErr  []string // substrings; empty means valid
	}{
		{name: "defaults", args: nil, overflow: "drop-oldest"},
		{name: "spill flags with spill policy",
			args:     []string{"-overflow", "spill", "-spill-dir", "/tmp/x", "-spill-hot", "64", "-compact-budget", "1024"},
			overflow: "spill"},
		{name: "spill-dir without spill",
			args:     []string{"-spill-dir", "/tmp/x"},
			overflow: "drop-oldest",
			wantErr:  []string{"-spill-dir", "drop-oldest"}},
		{name: "every spill flag without spill",
			args: []string{"-overflow", "block", "-spill-dir", "d", "-spill-hot", "1",
				"-spill-segment", "2", "-spill-warm", "3", "-compact-budget", "4"},
			overflow: "block",
			wantErr:  []string{"-spill-dir", "-spill-hot", "-spill-segment", "-spill-warm", "-compact-budget"}},
		{name: "unrelated flags stay legal",
			args:     []string{"-spool", "out.bin"},
			overflow: "drop-newest"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := spillFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := validateOverflowFlags(fs, tc.overflow)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted with -overflow %s", tc.args, tc.overflow)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestValidateModeFlags pins the federation mode contract: -relay and
// -uplink are mutually exclusive, relay tuning needs -relay, uplink
// tuning needs -uplink, -miso is rejected in both federated roles, and
// the error names every offending flag.
func TestValidateModeFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr []string // substrings; empty means valid
	}{
		{name: "plain leaf defaults", args: nil},
		{name: "relay with its own flags",
			args: []string{"-relay", "-downstreams", "4", "-max-stall", "2s",
				"-lane-ring", "64", "-resume-spool", "root.bin"}},
		{name: "uplink with its own flags",
			args: []string{"-uplink", "127.0.0.1:7311", "-uplink-node", "3",
				"-uplink-batch", "256", "-uplink-window", "128", "-mark-interval", "500ms"}},
		{name: "relay and uplink together",
			args:    []string{"-relay", "-uplink", "127.0.0.1:7311"},
			wantErr: []string{"mutually exclusive"}},
		{name: "relay flags without relay",
			args:    []string{"-downstreams", "4", "-max-stall", "1s"},
			wantErr: []string{"-downstreams", "-max-stall", "needs -relay"}},
		{name: "uplink flags without uplink",
			args:    []string{"-uplink-node", "3", "-mark-interval", "1s", "-uplink-window", "8", "-uplink-batch", "16"},
			wantErr: []string{"-uplink-node", "-mark-interval", "-uplink-window", "-uplink-batch", "needs -uplink"}},
		{name: "miso on a relay",
			args:    []string{"-relay", "-miso"},
			wantErr: []string{"-miso", "no input stage"}},
		{name: "miso on an uplink leaf",
			args:    []string{"-uplink", "127.0.0.1:7311", "-miso"},
			wantErr: []string{"-miso", "SISO"}},
		{name: "miso on a plain leaf stays legal",
			args: []string{"-miso"}},
		{name: "unrelated flags stay legal in relay mode",
			args: []string{"-relay", "-spool", "out.bin"}},
		{name: "mixed stray flags across both roles",
			args:    []string{"-lane-ring", "8", "-uplink-batch", "32"},
			wantErr: []string{"-lane-ring", "needs -relay", "-uplink-batch", "needs -uplink"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := modeFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			relayMode := fs.Lookup("relay").Value.String() == "true"
			uplink := fs.Lookup("uplink").Value.String()
			err := validateModeFlags(fs, relayMode, uplink)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestWireStatLines pins the shutdown wire summary: per-record cost in
// both directions when records moved, a control-only line when only
// framing overhead moved, and silence with no traffic at all.
func TestWireStatLines(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]uint64
		want []string
	}{
		{name: "no traffic", set: nil, want: nil},
		{name: "tx records",
			set:  map[string]uint64{"tp.bytes_tx": 800, "tp.recs_tx": 100},
			want: []string{"wire tx: 800 B, 100 records, 8.00 B/rec"}},
		{name: "control only",
			set:  map[string]uint64{"tp.bytes_rx": 36},
			want: []string{"wire rx: 36 B (control only)"}},
		{name: "both directions",
			set: map[string]uint64{
				"tp.bytes_tx": 400, "tp.recs_tx": 100,
				"tp.bytes_rx": 72, "tp.recs_rx": 9,
			},
			want: []string{
				"wire tx: 400 B, 100 records, 4.00 B/rec",
				"wire rx: 72 B, 9 records, 8.00 B/rec",
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			for name, v := range tc.set {
				reg.Counter(name).Add(v)
			}
			got := wireStatLines(reg.Snapshot())
			if len(got) != len(tc.want) {
				t.Fatalf("got %q, want %q", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("line %d: got %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestReadResumeSpool: the streamed resume read returns exactly the
// records a previous relay spooled plus the file size, and treats a
// missing or empty spool as nothing to resume.
func TestReadResumeSpool(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "root.bin")
	want := make([]trace.Record, 3000)
	for i := range want {
		want[i] = trace.Record{Node: int32(i % 4), Process: 1, Kind: trace.KindUser, Time: int64(i), Payload: int64(i)}
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	if err := w.WriteAll(want); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := readResumeSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Size() {
		t.Fatalf("size = %d, want %d", n, st.Size())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d records, want the %d written", len(got), len(want))
	}

	empty := filepath.Join(dir, "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{empty, filepath.Join(dir, "missing.bin")} {
		if got, n, err := readResumeSpool(p); err != nil || n != 0 || got != nil {
			t.Fatalf("%s: got %d records, size %d, err %v; want nothing", p, len(got), n, err)
		}
	}
}
