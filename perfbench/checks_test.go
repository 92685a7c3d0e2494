package main

import (
	"bytes"
	"strings"
	"testing"

	"pas2p"
	"pas2p/internal/phase"
	"pas2p/internal/service"
)

// smallTable analyses a small traced run.
func smallTable(t *testing.T) (*pas2p.PhaseTable, *upload) {
	t.Helper()
	apps, err := prepareApps([]appCase{{"cg", "classA", 4}})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := pas2p.RunApp(apps[0].app, pas2p.RunConfig{Deployment: apps[0].dep, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	up, err := encodeUpload("cg", rr.Trace, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := offlineTable(up)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.RelevantRows()) == 0 {
		t.Fatal("test table has no relevant phase")
	}
	return tb, up
}

func cloneTable(tb *pas2p.PhaseTable) *pas2p.PhaseTable {
	c := *tb
	c.Rows = append([]phase.TableRow(nil), tb.Rows...)
	return &c
}

func TestCheckSameTableRejectsFlippedWeight(t *testing.T) {
	tb, _ := smallTable(t)
	if err := checkSameTable("same", tb, cloneTable(tb)); err != nil {
		t.Fatalf("identical tables rejected: %v", err)
	}
	bad := cloneTable(tb)
	bad.Rows[0].Weight++
	if err := checkSameTable("flipped", tb, bad); err == nil || !strings.Contains(err.Error(), "row 0") {
		t.Fatalf("flipped weight not rejected: %v", err)
	}
	bad = cloneTable(tb)
	bad.BaseAET++
	if err := checkSameTable("aet", tb, bad); err == nil {
		t.Fatal("changed base AET not rejected")
	}
	if err := checkSameTable("missing", tb, nil); err == nil {
		t.Fatal("missing table not rejected")
	}
}

// answerFor builds the answer the service gives for tb.
func answerFor(tb *pas2p.PhaseTable, crc uint32, events int) *service.AnalyzeResponse {
	rel := tb.RelevantRows()
	a := &service.AnalyzeResponse{App: tb.AppName, Procs: tb.Procs, Events: events, TraceCRC32C: crc, Warm: 1,
		BaseAETNS: int64(tb.BaseAET), TotalPhases: tb.TotalPhases, Relevant: len(rel),
		PredictedAETNS: int64(tb.PredictedAET(true))}
	for _, r := range rel {
		a.Phases = append(a.Phases, service.PhaseSummary{PhaseID: r.PhaseID, Weight: r.Weight, PhaseETNS: int64(r.PhaseET)})
	}
	return a
}

func TestCheckAnalyzeAnswerRejectsTamperedAnswers(t *testing.T) {
	tb, up := smallTable(t)
	if err := checkAnalyzeAnswer(answerFor(tb, up.crc, up.events), up.crc, tb, up.events); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	for name, tamper := range map[string]func(a *service.AnalyzeResponse){
		"crc":        func(a *service.AnalyzeResponse) { a.TraceCRC32C ^= 1 },
		"weight":     func(a *service.AnalyzeResponse) { a.Phases[0].Weight++ },
		"phase time": func(a *service.AnalyzeResponse) { a.Phases[0].PhaseETNS++ },
		"events":     func(a *service.AnalyzeResponse) { a.Events-- },
		"base AET":   func(a *service.AnalyzeResponse) { a.BaseAETNS++ },
		"dropped":    func(a *service.AnalyzeResponse) { a.Phases = a.Phases[1:] },
	} {
		a := answerFor(tb, up.crc, up.events)
		tamper(a)
		if err := checkAnalyzeAnswer(a, up.crc, tb, up.events); err == nil {
			t.Errorf("answer with a tampered %s accepted", name)
		}
	}
}

// TestOfflineTableOfFreshUpload checks that a fresh upload, whose bytes
// are dropped after sending, is analysed from the same bytes again.
func TestOfflineTableOfFreshUpload(t *testing.T) {
	up := &upload{name: "fresh", fresh: true, procs: 8, seed: 42, synthEvents: 4000}
	if err := up.materialize(); err != nil {
		t.Fatal(err)
	}
	data, crc := append([]byte(nil), up.data...), up.crc
	up.data = nil
	if _, err := offlineTable(up); err != nil {
		t.Fatal(err)
	}
	if up.data != nil {
		t.Error("offline analysis kept the fresh upload's bytes")
	}
	if err := up.materialize(); err != nil || !bytes.Equal(up.data, data) || up.crc != crc {
		t.Fatalf("fresh upload is not reproducible from its seed (err %v)", err)
	}
}

func TestSHALedgerRejectsChangedPayload(t *testing.T) {
	l := newSHALedger()
	if err := l.check("ft/8", "aa"); err != nil {
		t.Fatal(err)
	}
	if err := l.check("ft/8", "aa"); err != nil {
		t.Fatalf("same SHA rejected: %v", err)
	}
	if err := l.check("bt/8", "bb"); err != nil {
		t.Fatalf("another key's SHA rejected: %v", err)
	}
	if err := l.check("ft/8", "ab"); err == nil {
		t.Fatal("mismatched SHA accepted")
	}
	if err := l.check("sp/8", ""); err == nil {
		t.Fatal("missing SHA accepted")
	}
}

func TestCheckPredictionRejectsCeilingAndDrift(t *testing.T) {
	cfg := predictConfig{ceilings: map[string]float64{"lu": 3}}
	first := map[string]prediction{}
	ok := prediction{pet: 100, aet: 102, pete: 1.96}
	if err := checkPrediction(cfg, "lu", ok, nil, first); err != nil {
		t.Fatalf("good prediction rejected: %v", err)
	}
	if err := checkPrediction(cfg, "lu", prediction{pet: 100, aet: 110, pete: 9.1}, nil, first); err == nil {
		t.Fatal("PETE above the ceiling accepted")
	}
	if err := checkPrediction(cfg, "lu", prediction{pet: 101, aet: 102, pete: 0.98}, nil, first); err == nil {
		t.Fatal("a PET that differs from the first run accepted")
	}
	if err := checkPrediction(cfg, "cg", ok, nil, first); err == nil {
		t.Fatal("an app without a ceiling accepted")
	}
}
