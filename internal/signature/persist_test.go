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
	"pas2p/internal/machine"
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

func TestLoadSavedRejectsGarbage(t *testing.T) {
	if _, err := LoadSaved(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadSaved(strings.NewReader(`{"AppName":"x"}`)); err == nil {
		t.Error("missing table/catalog should fail")
	}
}

// TestLoadSavedRejectsProcsMismatch: a cg/8 payload whose table is cut
// to 4 processes, re-checksummed, passes the table's and the catalog's
// own checks. Executed, it would fail in a rank's out-of-range index;
// LoadSaved must refuse it with ErrInconsistent instead.
func TestLoadSavedRejectsProcsMismatch(t *testing.T) {
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
	payload, err := json.Marshal(saved)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	doc, err := json.Marshal(envelope{
		FormatVersion: EnvelopeVersion,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSaved(bytes.NewReader(doc)); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("LoadSaved = %v, want ErrInconsistent", err)
	}
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
