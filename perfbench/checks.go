package main

import (
	"fmt"
	"reflect"
	"sync"

	"pas2p"
	"pas2p/internal/service"
)

// checkSameTable holds a phase table to a reference one: same header,
// same rows, field for field.
func checkSameTable(what string, want, got *pas2p.PhaseTable) error {
	if got == nil {
		return fmt.Errorf("%s: no phase table", what)
	}
	if want.AppName != got.AppName || want.Procs != got.Procs || want.BaseAET != got.BaseAET ||
		want.TotalPhases != got.TotalPhases || len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("%s: table header differs: %s/%d AET %d %d phases %d rows, want %s/%d AET %d %d phases %d rows",
			what, got.AppName, got.Procs, got.BaseAET, got.TotalPhases, len(got.Rows),
			want.AppName, want.Procs, want.BaseAET, want.TotalPhases, len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
			return fmt.Errorf("%s: row %d (phase %d) differs: weight %d ET %d, want weight %d ET %d",
				what, i, want.Rows[i].PhaseID, got.Rows[i].Weight, got.Rows[i].PhaseET,
				want.Rows[i].Weight, want.Rows[i].PhaseET)
		}
	}
	return nil
}

// checkAnalyzeAnswer holds a served analyze answer to the uploaded
// file (the echoed CRC) and to the benchmark's own offline analysis
// of the same trace. A v2 file CRC depends only on the file's block
// layout, so two traces of one size echo the same CRC: the table
// comparison is what catches an answer for the wrong trace.
func checkAnalyzeAnswer(got *service.AnalyzeResponse, crc uint32, want *pas2p.PhaseTable, events int) error {
	if got.TraceCRC32C != crc {
		return fmt.Errorf("analyze: answer echoes CRC %08x, uploaded trace has %08x", got.TraceCRC32C, crc)
	}
	rel := want.RelevantRows()
	if got.App != want.AppName || got.Procs != want.Procs || got.Events != events ||
		got.BaseAETNS != int64(want.BaseAET) || got.TotalPhases != want.TotalPhases ||
		got.Relevant != len(rel) || got.PredictedAETNS != int64(want.PredictedAET(true)) ||
		len(got.Phases) != len(rel) {
		return fmt.Errorf("analyze %08x: answer %s/%d, %d events, AET %d, %d phases (%d relevant), PET %d; offline table %s/%d, %d events, AET %d, %d phases (%d relevant), PET %d",
			crc, got.App, got.Procs, got.Events, got.BaseAETNS, got.TotalPhases, got.Relevant, got.PredictedAETNS,
			want.AppName, want.Procs, events, want.BaseAET, want.TotalPhases, len(rel), want.PredictedAET(true))
	}
	for i, r := range rel {
		p := got.Phases[i]
		if p.PhaseID != r.PhaseID || p.Weight != r.Weight || p.PhaseETNS != int64(r.PhaseET) {
			return fmt.Errorf("analyze %08x: phase %d answered weight %d ET %d, offline table has weight %d ET %d",
				crc, p.PhaseID, p.Weight, p.PhaseETNS, r.Weight, r.PhaseET)
		}
	}
	return nil
}

// shaLedger remembers the first payload SHA-256 seen for each
// signature key; sign, lookup and predict answers for that key must
// all carry the same one within a run.
type shaLedger struct {
	mu   sync.Mutex
	seen map[string]string
}

func newSHALedger() *shaLedger { return &shaLedger{seen: map[string]string{}} }

func (l *shaLedger) check(key, sha string) error {
	if sha == "" {
		return fmt.Errorf("%s: answer carries no payload SHA", key)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if first, ok := l.seen[key]; ok && first != sha {
		return fmt.Errorf("%s: payload SHA %s, earlier answer had %s", key, sha, first)
	}
	l.seen[key] = sha
	return nil
}
