package scenario

import (
	"strings"
	"testing"
)

// FuzzScenarioParse: arbitrary mutated scenario documents must never
// panic the parser or decoder, and every rejection must be a
// positioned *ParseError (file and 1-based line) so campaign authors
// always get a jump target. Accepted documents must satisfy the
// invariants the runner depends on.
func FuzzScenarioParse(f *testing.F) {
	f.Add([]byte(validDoc))
	f.Add([]byte(violatedScenario))
	f.Add([]byte(`name: fuzzy
app:
  name: lu
  ranks: 16
  workload: classA
base:
  cluster: C
  cores: 8
  mapping: cyclic
targets: [A, B]
faults:
  spec: loss=0.05,crash=0.2
  seeds: [1, 2]
timeout: 90s
assert:
  pete_bound: 6.5
  recovery_invariant: true
`))
	f.Add([]byte("---\n# comment\nname: 'quo''ted'\n"))
	f.Add([]byte("a: [1, 2, 3]\nb: \"x\\ny\"\n"))
	f.Add([]byte("\t"))
	f.Add([]byte("a:\n  - 1\n  - 2\n"))
	f.Add([]byte("pete_boundd: 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse("fuzz.yaml", data)
		if err != nil {
			pe, ok := AsParseError(err)
			if !ok {
				t.Fatalf("rejection is not positioned: %v", err)
			}
			if pe.File != "fuzz.yaml" || pe.Line < 1 {
				t.Fatalf("bad position %q:%d in %v", pe.File, pe.Line, err)
			}
			if strings.TrimSpace(pe.Msg) == "" {
				t.Fatalf("empty error message: %+v", pe)
			}
			return
		}
		// Accepted scenarios must be runnable: a name, a validated app
		// within the rank bounds, at least one target, at least one
		// assertion, and a non-empty case expansion.
		if s.Name == "" || len(s.Targets) == 0 || s.Assert.count() == 0 {
			t.Fatalf("decoder accepted an unrunnable scenario: %+v", s)
		}
		if s.App.Ranks < 2 || s.App.Ranks > maxRanks {
			t.Fatalf("ranks %d escaped validation", s.App.Ranks)
		}
		if len(s.Cases()) == 0 {
			t.Fatalf("valid scenario expands to zero cases: %+v", s)
		}
	})
}
