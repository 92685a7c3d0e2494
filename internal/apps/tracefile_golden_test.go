package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"pas2p/internal/trace"
)

// tracefileGoldenFile holds one line per (app, ranks): the SHA-256 of
// the v2 tracefile trace.Encode writes for the run's trace.
const tracefileGoldenFile = "testdata/tracefile_sha256.txt"

// TestTracefileBytesGolden pins the tracefile bytes of every app at
// its small workload on 8 and 16 ranks, the ID column included (the
// event digests of TestAppTraceGolden leave it out). Any change to how
// a trace is recorded, numbered or serialised that moves one byte of
// a written tracefile fails here.
func TestTracefileBytesGolden(t *testing.T) {
	data, err := os.ReadFile(tracefileGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var got []string
	for _, name := range Names() {
		for _, procs := range []int{8, 16} {
			res, _ := runTraced(t, name, procs, smallWorkload[name])
			h := sha256.New()
			if err := trace.Encode(h, res.Recording.Trace()); err != nil {
				t.Fatalf("%s/%d: %v", name, procs, err)
			}
			got = append(got, fmt.Sprintf("%s/%d %s", name, procs, hex.EncodeToString(h.Sum(nil))))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d tracefile digests, golden file has %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("tracefile digest mismatch:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
