package signature

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pas2p/internal/apps"
	"pas2p/internal/machine"
	"pas2p/internal/sim"
)

// FuzzLoadSaved: a stored signature is input from outside the program.
// The fuzzer mutates a real cg/8 payload, which is then re-checksummed,
// so that only the payload's own checks can refuse it. Whatever loads
// and reassembles is executed on cluster B. Each input must end in an
// error, or in a prediction with a non-negative SET and PET. A rank
// panic, a negative time or a hang fails the input.
func FuzzLoadSaved(f *testing.F) {
	payload, err := json.Marshal(savedCG8(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(payload)
	for _, edit := range [][2]string{
		{`"WarmupEvents":4`, `"WarmupEvents":100000`},
		{`"Relevant":false`, `"Relevant":true`},
		{`"ColdFactor":2`, `"ColdFactor":1e300`},
		{`"Weight":`, `"Weight":1`},
		{`"StartEvents":[`, `"StartEvents":[9`},
	} {
		f.Add(bytes.Replace(payload, []byte(edit[0]), []byte(edit[1]), 1))
	}
	app, err := apps.Make("cg", 8, "")
	if err != nil {
		f.Fatal(err)
	}
	target := deployOn(f, machine.ClusterB(), 8)
	f.Fuzz(func(t *testing.T, payload []byte) {
		var compact bytes.Buffer
		if json.Compact(&compact, payload) != nil {
			t.Skip("not JSON: the envelope cannot carry it")
		}
		saved, err := LoadSaved(bytes.NewReader(seal(t, compact.Bytes())))
		if err != nil {
			return
		}
		sig, err := saved.Reassemble(app)
		if err != nil {
			return
		}
		type outcome struct {
			res *ExecResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := sig.Execute(target)
			done <- outcome{res, err}
		}()
		select {
		case out := <-done:
			if errors.Is(out.err, sim.ErrRankPanic) {
				t.Fatalf("Execute: %v", out.err)
			}
			if out.err == nil && (out.res.PET < 0 || out.res.SET < 0) {
				t.Fatalf("Execute predicted SET %v, PET %v", out.res.SET, out.res.PET)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Execute did not return within 30 s")
		}
	})
}
