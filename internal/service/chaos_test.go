package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"pas2p"
	"pas2p/internal/faults"
	"pas2p/internal/fsx"
)

// chaosSpec is a fully-recovering message fault schedule: loss bounded
// by retransmission, duplication, delay. For cg/4 it leaves the phase
// table free of pair-bias corrections (scaledRows == 0), which is the
// regime where predictions are bit-identical to a healthy run.
const (
	chaosSeed = 7
	chaosSpec = "loss=0.05,dup=0.03,delay=0.10"
)

// localPET runs the full local pipeline for cg/4 A→B (optionally
// faulted) and returns the prediction plus the pair-bias row count.
func localPET(t *testing.T, inj *pas2p.FaultInjector) (int64, int) {
	t.Helper()
	app, err := pas2p.MakeApp("cg", 4, "")
	if err != nil {
		t.Fatal(err)
	}
	dA, err := pas2p.NewDeployment(pas2p.ClusterA(), 4, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := pas2p.NewDeployment(pas2p.ClusterB(), 4, pas2p.MapBlock)
	if err != nil {
		t.Fatal(err)
	}
	r, err := pas2p.RunApp(app, pas2p.RunConfig{Deployment: dA, Trace: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, tb, err := pas2p.Analyze(r.Trace, pas2p.DefaultPhaseConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	scaled := 0
	for _, row := range tb.Rows {
		if row.ETScale != 0 && row.ETScale != 1 {
			scaled++
		}
	}
	sig, _, err := pas2p.BuildSignature(app, tb, dA, pas2p.DefaultSignatureOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sig.Execute(dB)
	if err != nil {
		t.Fatal(err)
	}
	return int64(res.PET), scaled
}

// TestChaosServiceServesCleanOrTyped is the chaos serving proof: the
// daemon runs with message-level fault injection in its pipeline AND a
// corrupting filesystem under its signature repository, absorbs
// concurrent mixed traffic, and every single response is either a 200
// whose checksums verify or a clean typed error — never a confident
// wrong answer, never an untyped failure, never a crash. Afterwards,
// fsck + a bounded re-sign loop restore service, and the restored
// prediction is bit-identical to a healthy local baseline.
func TestChaosServiceServesCleanOrTyped(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign is slow")
	}

	// Healthy local baseline, and the precondition that makes the
	// bit-identity assertion non-vacuous: cg/4 must carry no pair-bias
	// correction, healthy or faulted.
	petHealthy, scaled0 := localPET(t, nil)
	if scaled0 != 0 {
		t.Fatalf("cg/4 healthy table has %d scaled rows; pick another app", scaled0)
	}
	preInj, err := pas2p.ParseFaultSpec(chaosSeed, chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	petFaulted, scaled1 := localPET(t, preInj)
	if scaled1 != 0 {
		t.Fatalf("cg/4 faulted table has %d scaled rows; spec no longer recovery-only", scaled1)
	}
	if petFaulted != petHealthy {
		t.Fatalf("local chaos invariant broken before the service test: healthy PET %d, faulted %d",
			petHealthy, petFaulted)
	}

	// The service under chaos: same injector spec in the pipeline, and
	// a repository filesystem that tears, truncates, and bit-flips a
	// large fraction of writes.
	inj, err := pas2p.ParseFaultSpec(chaosSeed, chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	ffs, err := faults.NewFaultFS(fsx.OS{}, faults.FSConfig{
		Seed: chaosSeed, TornRate: 0.25, TruncRate: 0.2, FlipRate: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, ts := newTestService(t, func(c *Config) {
		c.FS = ffs
		c.Faults = inj
		c.HeavySlots = 2
		c.HeavyQueue = 16
	})
	data := tracefileBytes(t, "cg", 4)

	// The storm: concurrent workers mixing every endpoint, including
	// fsck, against the corrupting repo. Typed errors (404 before the
	// first successful sign, 503 repo_corrupt after a torn write) are
	// expected and fine; unclean responses fail the test.
	var mu sync.Mutex
	var unclean []string
	shas := map[string]bool{}
	note := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(unclean) < 16 {
			unclean = append(unclean, fmt.Sprintf(format, args...))
		}
	}
	checkSha := func(sha string) {
		mu.Lock()
		defer mu.Unlock()
		shas[sha] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var resp *http.Response
				var err error
				op := ""
				switch (w*8 + i) % 5 {
				case 0, 1:
					op = "sign"
					resp = postJSON(t, ts.URL+"/v1/sign", SignRequest{App: "cg", Procs: 4})
				case 2:
					op = "analyze"
					resp = postBytes(t, ts.URL+"/v1/analyze", data, nil)
				case 3:
					op = "lookup"
					resp, err = http.Get(ts.URL + "/v1/lookup?app=cg&procs=4")
				case 4:
					op = "predict"
					resp = postJSON(t, ts.URL+"/v1/predict", PredictRequest{App: "cg", Procs: 4})
				}
				if err != nil {
					note("%s: transport: %v", op, err)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					note("%s: reading body: %v", op, rerr)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					var e errorBody
					if jerr := json.Unmarshal(body, &e); jerr != nil || e.Error.Code == "" {
						note("%s: untyped %d: %.160q", op, resp.StatusCode, body)
					}
					continue
				}
				// 200 under chaos: the checksums must hold.
				switch op {
				case "sign":
					var v SignResponse
					if jerr := json.Unmarshal(body, &v); jerr != nil || v.PayloadSHA256 == "" {
						note("sign: 200 without verifiable payload: %.160q", body)
						continue
					}
					checkSha(v.PayloadSHA256)
				case "lookup":
					var v LookupResponse
					if jerr := json.Unmarshal(body, &v); jerr != nil || v.PayloadSHA256 == "" {
						note("lookup: 200 without verifiable payload: %.160q", body)
						continue
					}
					checkSha(v.PayloadSHA256)
				case "predict":
					var v PredictResponse
					if jerr := json.Unmarshal(body, &v); jerr != nil || v.PayloadSHA256 == "" {
						note("predict: 200 without verifiable payload: %.160q", body)
						continue
					}
					checkSha(v.PayloadSHA256)
					if v.PETNS != petHealthy {
						note("predict: served PET %d under chaos, healthy baseline %d", v.PETNS, petHealthy)
					}
				case "analyze":
					var v AnalyzeResponse
					if jerr := json.Unmarshal(body, &v); jerr != nil || v.TotalPhases == 0 {
						note("analyze: implausible 200: %.160q", body)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, u := range unclean {
		t.Errorf("unclean under chaos: %s", u)
	}
	// The pipeline is deterministic per seed, so every successful sign
	// stores byte-identical payload: one SHA across the whole storm.
	if len(shas) > 1 {
		t.Errorf("payload SHA flapped under chaos: %d distinct values", len(shas))
	}
	if t.Failed() {
		t.FailNow()
	}

	// Recovery: fsck quarantines whatever the fault filesystem mangled,
	// a re-sign rewrites it, and within a bounded number of rounds the
	// service answers again — with the healthy prediction, bit for bit.
	var pet PredictResponse
	recovered := false
	for round := 0; round < 20 && !recovered; round++ {
		resp := postBytes(t, ts.URL+"/v1/fsck", nil, nil)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		resp = postJSON(t, ts.URL+"/v1/sign", SignRequest{App: "cg", Procs: 4})
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			continue
		}
		resp.Body.Close()
		resp = postJSON(t, ts.URL+"/v1/predict", PredictRequest{App: "cg", Procs: 4})
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			continue
		}
		decodeInto(t, resp, &pet)
		recovered = true
	}
	if !recovered {
		t.Fatal("service did not recover within 20 fsck+re-sign rounds")
	}
	if pet.PETNS != petHealthy {
		t.Fatalf("post-recovery prediction %d != healthy baseline %d", pet.PETNS, petHealthy)
	}
	if pet.Degraded {
		t.Fatal("post-recovery prediction reports degradation")
	}

	// The server survived all of it.
	if svc.mPanics.Value() != 0 {
		t.Fatalf("panics under chaos: %d", svc.mPanics.Value())
	}
	rep := inj.Report()
	if rep.Injected == 0 && rep.ClockPerturbations == 0 {
		t.Fatal("chaos campaign injected nothing; property vacuous")
	}
	t.Logf("chaos: %d faults injected, healthy PET %d served bit-identically after recovery",
		rep.Injected, petHealthy)
}

// TestChaosTruncatedUploadIsTyped pins the ingestion half: a tracefile
// damaged in flight (torn tail, flipped bits) is always a typed 422,
// never a 200 and never a panic — the whole-file CRC and per-block
// checksums catch it.
func TestChaosTruncatedUploadIsTyped(t *testing.T) {
	_, ts := newTestService(t, nil)
	data := tracefileBytes(t, "cg", 4)
	for _, mut := range []struct {
		name string
		body []byte
	}{
		{"torn", data[:len(data)/2]},
		{"truncated", data[:len(data)-3]},
		{"bitflip", flipBit(data, 1234567)},
		// PAS2PTR2 → PAS2PTR1: the retired layout's magic, which no
		// reader accepts.
		{"magic-downgrade", flipBit(flipBit(data, 7*8), 7*8+1)},
	} {
		resp := postBytes(t, ts.URL+"/v1/analyze", mut.body, nil)
		wantTyped(t, resp, http.StatusUnprocessableEntity, CodeCorruptTrace)
	}
}

func flipBit(data []byte, bit int) []byte {
	out := bytes.Clone(data)
	bit %= len(out) * 8
	out[bit/8] ^= 1 << (bit % 8)
	return out
}
