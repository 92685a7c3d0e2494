package signature

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pas2p/internal/mpi"
	"pas2p/internal/phase"
)

// Saved is the on-disk form of a signature: everything except the
// application code itself, which is referenced by registry name (the
// paper's signature carries the real binaries; here the runnable code
// is reattached at load time), and except the checkpoint catalog,
// which Reassemble derives from the table, the options and BaseISA as
// Build does. A payload that still carries a catalog loads; the field
// is ignored.
type Saved struct {
	// AppName/Workload/Procs identify the application in the registry.
	AppName  string
	Workload string
	Procs    int
	// BaseISA is the instruction set the signature was built for.
	BaseISA string
	// BaseCluster names the machine the signature was built on
	// (informational).
	BaseCluster string
	Options     Options
	Table       *phase.Table

	// sha is the payload checksum of the envelope LoadSaved read.
	sha string
}

// PayloadSHA256 returns the hex SHA-256 of the payload s was loaded
// from, as its envelope stores it and LoadSaved verified it: a client
// can compare it against the stored artefact. It is empty for a Saved
// that LoadSaved did not return.
func (s *Saved) PayloadSHA256() string { return s.sha }

// EnvelopeVersion is the persisted-signature format LoadSaved reads:
// the Saved payload wrapped in an integrity envelope. Version 1, the
// bare Saved JSON with no envelope, is retired and rejected with
// ErrRetiredFormat.
const EnvelopeVersion = 2

// ErrRetiredFormat is matched (errors.Is) by the error LoadSaved
// returns for a document in a retired format.
var ErrRetiredFormat = errors.New("retired signature format")

// ErrInconsistent is matched (errors.Is) by the error LoadSaved returns
// for a payload whose parts each pass their own checks but disagree
// with one another.
var ErrInconsistent = errors.New("inconsistent signature")

// envelope is the on-disk wrapper of a persisted signature. The
// SHA-256 is computed over the compacted payload bytes, so pretty-
// printing or re-indenting the file does not invalidate it — only
// changing the payload's content does.
type envelope struct {
	FormatVersion int             `json:"formatVersion"`
	PayloadSHA256 string          `json:"payloadSHA256"`
	Payload       json.RawMessage `json:"payload"`
}

// Save writes the signature's persistent form: a version-2 envelope
// whose payload checksum lets readers detect bit-rot and torn writes.
// workload and baseCluster label the artefact for the reader.
func (s *Signature) Save(w io.Writer, workload, baseCluster string) error {
	saved := Saved{
		AppName:     s.App.Name,
		Workload:    workload,
		Procs:       s.App.Procs,
		BaseISA:     s.BaseISA,
		BaseCluster: baseCluster,
		Options:     s.Options,
		Table:       s.Table,
	}
	payload, err := json.Marshal(&saved)
	if err != nil {
		return fmt.Errorf("signature: encoding payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	env := envelope{
		FormatVersion: EnvelopeVersion,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       payload,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&env)
}

// LoadSaved reads a persisted signature description in the checksummed
// envelope. Envelope checksum mismatches are reported as corruption,
// not decoded into a wrong signature.
func LoadSaved(r io.Reader) (*Saved, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("signature: reading: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("signature: decoding: %w", err)
	}
	switch env.FormatVersion {
	case EnvelopeVersion:
	case 0, 1:
		// Version 1 was the bare Saved document, with no formatVersion.
		return nil, fmt.Errorf("signature: %w (format version %d, want %d)",
			ErrRetiredFormat, env.FormatVersion, EnvelopeVersion)
	default:
		return nil, fmt.Errorf("signature: unsupported format version %d (want %d)",
			env.FormatVersion, EnvelopeVersion)
	}
	if len(env.Payload) == 0 {
		return nil, fmt.Errorf("signature: envelope missing payload")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, env.Payload); err != nil {
		return nil, fmt.Errorf("signature: corrupt payload: %w", err)
	}
	sum := sha256.Sum256(compact.Bytes())
	if got := hex.EncodeToString(sum[:]); got != env.PayloadSHA256 {
		return nil, fmt.Errorf("signature: payload checksum mismatch (stored %.12s…, computed %.12s…)",
			env.PayloadSHA256, got)
	}
	s, err := loadPayload(env.Payload)
	if err != nil {
		return nil, err
	}
	s.sha = env.PayloadSHA256
	return s, nil
}

// loadPayload decodes and validates the Saved payload itself.
func loadPayload(data []byte) (*Saved, error) {
	var s Saved
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("signature: decoding: %w", err)
	}
	if s.Table == nil {
		return nil, fmt.Errorf("signature: persisted form missing table")
	}
	if s.Table.Procs != s.Procs {
		return nil, fmt.Errorf("signature: %w: %d processes, table %d",
			ErrInconsistent, s.Procs, s.Table.Procs)
	}
	if err := s.Table.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Reassemble reattaches the application code to a persisted signature,
// rebuilding the executable segments and the checkpoint catalog
// without re-running construction.
func (s *Saved) Reassemble(app mpi.App) (*Signature, error) {
	if app.Procs != s.Procs {
		return nil, fmt.Errorf("signature: app has %d procs, saved signature %d", app.Procs, s.Procs)
	}
	if app.Name != s.AppName {
		return nil, fmt.Errorf("signature: app %q does not match saved %q", app.Name, s.AppName)
	}
	if err := s.Options.validate(); err != nil {
		return nil, err
	}
	return assemble(app, s.Table, s.BaseISA, s.Options)
}
