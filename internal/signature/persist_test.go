package signature

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"pas2p/internal/apps"
	"pas2p/internal/checkpoint"
	"pas2p/internal/machine"
	"pas2p/internal/phase"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	app := iterApp(8, 30)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := br.Signature.Save(&buf, "testwl", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	saved, err := LoadSaved(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if saved.AppName != "iter" || saved.Procs != 8 || saved.BaseISA != "x86_64" {
		t.Errorf("saved header wrong: %+v", saved)
	}
	reassembled, err := saved.Reassemble(app)
	if err != nil {
		t.Fatal(err)
	}

	// The reassembled signature must predict identically to the
	// original (deterministic runtime, same segments).
	target := deployOn(t, machine.ClusterB(), 8)
	r1, err := br.Signature.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := reassembled.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	if r1.PET != r2.PET || r1.SET != r2.SET {
		t.Errorf("reassembled signature diverges: PET %v/%v SET %v/%v",
			r1.PET, r2.PET, r1.SET, r2.SET)
	}
}

// TestSaveWritesEnvelope pins the v2 on-disk shape: formatVersion,
// payloadSHA256, payload.
func TestSaveWritesEnvelope(t *testing.T) {
	app := iterApp(8, 20)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := br.Signature.Save(&buf, "wl", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	var probe struct {
		FormatVersion int             `json:"formatVersion"`
		PayloadSHA256 string          `json:"payloadSHA256"`
		Payload       json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(buf.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	if probe.FormatVersion != EnvelopeVersion || len(probe.PayloadSHA256) != 64 || len(probe.Payload) == 0 {
		t.Errorf("envelope shape wrong: version %d, sha %q", probe.FormatVersion, probe.PayloadSHA256)
	}
}

// TestGoldenV1SignatureMigration pins the rejection of the retired
// format: the committed pre-envelope signature file (a bare Saved
// document, no checksum) must be refused with ErrRetiredFormat, never
// loaded.
func TestGoldenV1SignatureMigration(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1.sig.json")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("payloadSHA256")) {
		t.Fatal("golden file is not a bare pre-envelope document")
	}
	if _, err := LoadSaved(bytes.NewReader(raw)); !errors.Is(err, ErrRetiredFormat) {
		t.Fatalf("LoadSaved(golden_v1.sig.json) = %v, want ErrRetiredFormat", err)
	}
}

// TestEnvelopeDetectsEveryByteFlip flips each byte of a persisted
// envelope in turn; every flip must either be rejected (JSON syntax,
// version check, or payload checksum) or decode to the exact original
// signature (e.g. a case flip in a key name, which Go's JSON matches
// case-insensitively). What can never happen is a silently *wrong*
// signature.
func TestEnvelopeDetectsEveryByteFlip(t *testing.T) {
	app := iterApp(8, 10)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := br.Signature.Save(&buf, "wl", "Cluster A"); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	want, err := LoadSaved(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos++ {
		corrupted := append([]byte(nil), raw...)
		corrupted[pos] ^= 1 << (pos % 8)
		got, err := LoadSaved(bytes.NewReader(corrupted))
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("bit flip at byte %d loaded a different signature", pos)
		}
	}
	// Torn tails: anything cutting into the JSON itself must fail
	// (cutting only the trailing newline is a complete document).
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 2} {
		if _, err := LoadSaved(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// TestLoadSavedCatalogPayload: a version-2 cg/8 signature written
// when the payload still stored the checkpoint catalog (built on
// cluster A with lightOptions) loads under its original checksum, and
// executes on cluster B to the SET and PET it gave then, which a fresh
// build gives too. The catalog Reassemble derives is the one stored.
func TestLoadSavedCatalogPayload(t *testing.T) {
	raw, err := os.ReadFile("testdata/cg8_catalog_v2.sig.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"Catalog"`)) || !bytes.Contains(raw, []byte(`"formatVersion": 2`)) {
		t.Fatal("golden file is not a version-2 payload carrying a catalog")
	}
	saved, err := LoadSaved(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	app, err := apps.Make("cg", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := saved.Reassemble(app)
	if err != nil {
		t.Fatal(err)
	}
	target := deployOn(t, machine.ClusterB(), 8)
	got, err := sig.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	const wantSET, wantPET = 332904293223, 11318542302280
	if got.SET != wantSET || got.PET != wantPET {
		t.Errorf("stored signature: SET %d PET %d, want %d %d", got.SET, got.PET, wantSET, wantPET)
	}
	var stored struct {
		Payload struct{ Catalog *checkpoint.Catalog } `json:"payload"`
	}
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sig.Catalog, stored.Payload.Catalog) {
		t.Errorf("reassembled catalog %+v, stored %+v", sig.Catalog, stored.Payload.Catalog)
	}
	fresh, err := Build(app, saved.Table, deployOn(t, machine.ClusterA(), 8), lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Signature.Execute(target)
	if err != nil {
		t.Fatal(err)
	}
	if got.SET != want.SET || got.PET != want.PET {
		t.Errorf("stored signature: SET %d PET %d, fresh build %d %d", got.SET, got.PET, want.SET, want.PET)
	}
}

func TestLoadSavedRejectsGarbage(t *testing.T) {
	if _, err := LoadSaved(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadSaved(strings.NewReader(`{"AppName":"x"}`)); err == nil {
		t.Error("missing table should fail")
	}
}

// TestLoadSavedRejectsProcsMismatch: a cg/8 payload whose table is cut
// to 4 processes, re-checksummed, passes the table's own checks. Executed, it would fail in a rank's out-of-range index;
// LoadSaved must refuse it with ErrInconsistent instead.
func TestLoadSavedRejectsProcsMismatch(t *testing.T) {
	saved := savedCG8(t)
	const cut = 4
	saved.Table.Procs = cut
	for i := range saved.Table.Rows {
		r := &saved.Table.Rows[i]
		r.StartEvents, r.EndEvents = r.StartEvents[:cut], r.EndEvents[:cut]
		if r.HasPair {
			r.End2Events = r.End2Events[:cut]
		}
	}
	if err := saved.Table.Validate(); err != nil {
		t.Fatalf("edited table fails its own check, so the case tests nothing: %v", err)
	}
	if _, err := LoadSaved(bytes.NewReader(resave(t, saved))); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("LoadSaved = %v, want ErrInconsistent", err)
	}
}

// TestLoadSavedRejectsEq1Hazards: each case edits a cg/8 payload and
// re-checksums it. Before the table checked its times, scales and pair
// boundaries, LoadSaved accepted every one; executed, the weights case
// printed a PET of -8150005704.75 s.
func TestLoadSavedRejectsEq1Hazards(t *testing.T) {
	pairRow := func(s *Saved) *phase.TableRow {
		for i := range s.Table.Rows {
			if s.Table.Rows[i].HasPair {
				return &s.Table.Rows[i]
			}
		}
		t.Fatal("cg/8 table has no paired row")
		return nil
	}
	for _, tc := range []struct {
		name string
		edit func(s *Saved)
		want string
	}{
		{"relevant weights 9e18", func(s *Saved) {
			for i := range s.Table.Rows {
				if s.Table.Rows[i].Relevant {
					s.Table.Rows[i].Weight = 9e18
				}
			}
		}, "overflows"},
		{"negative PhaseET", func(s *Saved) { s.Table.Rows[0].PhaseET = -1 }, "negative PhaseET"},
		{"negative ETScale", func(s *Saved) { s.Table.Rows[0].ETScale = -0.5 }, "ETScale"},
		{"negative BaseAET", func(s *Saved) { s.Table.BaseAET = -1 }, "negative base AET"},
		{"End2Events before EndEvents", func(s *Saved) {
			r := pairRow(s)
			r.End2Events[0] = r.EndEvents[0] - 1
		}, "pair end"},
		{"End2Events too short", func(s *Saved) {
			r := pairRow(s)
			r.End2Events = r.End2Events[:len(r.End2Events)-1]
		}, "pair boundary width"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saved := savedCG8(t)
			tc.edit(saved)
			_, err := LoadSaved(bytes.NewReader(resave(t, saved)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadSaved = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestExecuteRefusesEq1Overflow: a signature whose weights make
// Equation (1) overflow, edited past LoadSaved's check, must fail to
// execute rather than report a negative PET.
func TestExecuteRefusesEq1Overflow(t *testing.T) {
	saved := savedCG8(t)
	for i := range saved.Table.Rows {
		saved.Table.Rows[i].Weight = 9e18
	}
	app, err := apps.Make("cg", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := saved.Reassemble(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sig.Execute(deployOn(t, machine.ClusterB(), 8))
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("Execute = %+v, %v; want an overflow error", res, err)
	}
}

// savedCG8 builds a cg/8 signature on cluster A and returns it as
// LoadSaved reads it back.
func savedCG8(t testing.TB) *Saved {
	t.Helper()
	app, err := apps.Make("cg", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := br.Signature.Save(&buf, "", ""); err != nil {
		t.Fatal(err)
	}
	saved, err := LoadSaved(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return saved
}

// resave wraps an edited payload in a fresh envelope with a matching
// checksum, so only the payload's own checks can refuse it.
func resave(t testing.TB, s *Saved) []byte {
	t.Helper()
	payload, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return seal(t, payload)
}

// seal wraps a compact payload in an envelope with a matching checksum.
func seal(t testing.TB, payload []byte) []byte {
	t.Helper()
	sum := sha256.Sum256(payload)
	doc, err := json.Marshal(envelope{
		FormatVersion: EnvelopeVersion,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestReassembleMismatch(t *testing.T) {
	app := iterApp(8, 20)
	base := deployOn(t, machine.ClusterA(), 8)
	tb, _ := analyze(t, app, base)
	br, err := Build(app, tb, base, lightOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := br.Signature.Save(&buf, "", ""); err != nil {
		t.Fatal(err)
	}
	saved, err := LoadSaved(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	wrongProcs := iterApp(4, 20)
	if _, err := saved.Reassemble(wrongProcs); err == nil {
		t.Error("procs mismatch should fail")
	}
	wrongName := iterApp(8, 20)
	wrongName.Name = "other"
	if _, err := saved.Reassemble(wrongName); err == nil {
		t.Error("name mismatch should fail")
	}
}
