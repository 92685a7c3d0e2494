// Package scenario is what remains of the repository's scenario DSL:
// the minimal YAML-subset parser its files were written in. The DSL's
// schema, campaign runner, reports and CLI verb are gone; the bounds its
// cases asserted are Go tests (TestPETECeilings in internal/predict,
// TestChaosRecoveryApps at the root). Nothing outside this package's
// tests calls the parser, and ROADMAP lists its removal.
//
// The subset, parsed with no external dependency (the repository is
// zero-dep by policy):
//
//   - mappings (`key: value`, or `key:` introducing an indented block),
//   - sequences of scalars (`- item` lines, or inline `[a, b, c]`),
//   - plain / single-quoted / double-quoted scalars,
//   - `#` comments and blank lines.
//
// Anchors, aliases, multi-document streams, tabs, nested sequences and
// block scalars are rejected with positioned errors.
package scenario

import (
	"errors"
	"fmt"
	"strings"
)

// ParseError is a positioned scenario-file error. Every failure of the
// parser carries the file name and 1-based line so tooling (and
// humans) can jump straight to the offending entry.
type ParseError struct {
	File string
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// errAt builds a positioned error.
func errAt(file string, line int, format string, args ...any) error {
	return &ParseError{File: file, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// AsParseError unwraps a ParseError, if any.
func AsParseError(err error) (*ParseError, bool) {
	var pe *ParseError
	ok := errors.As(err, &pe)
	return pe, ok
}

// node is one parsed YAML value: exactly one of mapping, sequence or
// scalar. Line is where the value starts (for mappings, the first key).
type node struct {
	line    int
	entries []mapEntry // mapping, in file order
	isMap   bool
	items   []*node // sequence
	isSeq   bool
	scalar  string // scalar (valid when !isMap && !isSeq)
	quoted  bool   // scalar came quoted (suppresses empty-value checks)
}

type mapEntry struct {
	key     string
	keyLine int
	val     *node
}

// get returns the value of a mapping key, or nil.
func (n *node) get(key string) *node {
	for i := range n.entries {
		if n.entries[i].key == key {
			return n.entries[i].val
		}
	}
	return nil
}

// logical is one significant source line.
type logical struct {
	indent int
	text   string // content with indent and comment stripped
	line   int    // 1-based source line
}

// parseTree parses a scenario document into a node tree. file is used
// only for error positioning.
func parseTree(file string, data []byte) (*node, error) {
	lines, err := splitLines(file, data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, errAt(file, 1, "empty scenario document")
	}
	p := &parser{file: file, lines: lines}
	root, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, errAt(file, l.line, "unexpected content at indent %d (sibling of nothing)", l.indent)
	}
	if !root.isMap {
		return nil, errAt(file, root.line, "scenario document must be a mapping at the top level")
	}
	return root, nil
}

// splitLines strips comments and blanks, rejects tabs, and records
// indentation. A leading `---` document marker is skipped; a second one
// (multi-document stream) is rejected.
func splitLines(file string, data []byte) ([]logical, error) {
	var out []logical
	raw := strings.Split(string(data), "\n")
	sawDoc := false
	for i, ln := range raw {
		lineNo := i + 1
		ln = strings.TrimRight(ln, "\r")
		trimmed := strings.TrimLeft(ln, " ")
		if idx := strings.IndexByte(trimmed, '\t'); idx >= 0 || strings.ContainsRune(ln[:len(ln)-len(trimmed)], '\t') {
			return nil, errAt(file, lineNo, "tab character (use spaces)")
		}
		content := stripComment(trimmed)
		content = strings.TrimRight(content, " ")
		if content == "" {
			continue
		}
		if content == "---" {
			if sawDoc || len(out) > 0 {
				return nil, errAt(file, lineNo, "multi-document streams are not supported")
			}
			sawDoc = true
			continue
		}
		out = append(out, logical{indent: len(ln) - len(trimmed), text: content, line: lineNo})
	}
	return out, nil
}

// stripComment removes a trailing `# ...` comment. A '#' starts a
// comment when it is the first character or is preceded by a space and
// sits outside quotes.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote {
				if quote == '\'' && i+1 < len(s) && s[i+1] == '\'' {
					i++ // '' escape inside single quotes
					continue
				}
				if quote == '"' {
					// backslash escape inside double quotes
					if i > 0 && s[i-1] == '\\' {
						continue
					}
				}
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return strings.TrimRight(s[:i], " ")
		}
	}
	return s
}

type parser struct {
	file  string
	lines []logical
	pos   int
}

// parseBlock parses the run of lines at exactly the given indent into a
// mapping or sequence node.
func (p *parser) parseBlock(indent int) (*node, error) {
	if p.pos >= len(p.lines) {
		return nil, errAt(p.file, 0, "internal: parseBlock past end")
	}
	first := p.lines[p.pos]
	if first.indent != indent {
		return nil, errAt(p.file, first.line, "inconsistent indentation: got %d spaces, expected %d", first.indent, indent)
	}
	if strings.HasPrefix(first.text, "- ") || first.text == "-" {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *parser) parseSeq(indent int) (*node, error) {
	n := &node{line: p.lines[p.pos].line, isSeq: true}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, errAt(p.file, l.line, "unexpected indentation inside sequence (nested blocks under '-' are not supported by the scenario subset)")
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			break // sibling mapping key ends the sequence at same indent — invalid, caught by caller
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(l.text, "-"), " ")
		if rest == "" {
			return nil, errAt(p.file, l.line, "empty sequence item")
		}
		if strings.HasPrefix(rest, "- ") {
			return nil, errAt(p.file, l.line, "nested sequences are not supported by the scenario subset")
		}
		if isMapLine(rest) {
			return nil, errAt(p.file, l.line, "mapping items inside sequences are not supported by the scenario subset (use scalar items)")
		}
		item, err := parseScalarOrList(p.file, l.line, rest)
		if err != nil {
			return nil, err
		}
		if item.isSeq {
			return nil, errAt(p.file, l.line, "nested sequences are not supported by the scenario subset")
		}
		n.items = append(n.items, item)
		p.pos++
	}
	return n, nil
}

func (p *parser) parseMap(indent int) (*node, error) {
	n := &node{line: p.lines[p.pos].line, isMap: true}
	seen := map[string]int{}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, errAt(p.file, l.line, "inconsistent indentation: got %d spaces, expected %d", l.indent, indent)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, errAt(p.file, l.line, "sequence item where a mapping key was expected")
		}
		key, rest, err := splitKey(p.file, l.line, l.text)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[key]; dup {
			return nil, errAt(p.file, l.line, "duplicate key %q (first defined on line %d)", key, prev)
		}
		seen[key] = l.line
		p.pos++
		var val *node
		if rest == "" {
			// Block value: the following lines at deeper indent.
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				val, err = p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
			} else {
				return nil, errAt(p.file, l.line, "key %q has no value (expected an inline scalar or an indented block)", key)
			}
		} else {
			val, err = parseScalarOrList(p.file, l.line, rest)
			if err != nil {
				return nil, err
			}
		}
		n.entries = append(n.entries, mapEntry{key: key, keyLine: l.line, val: val})
	}
	return n, nil
}

// isMapLine reports whether a line body looks like `key: ...`.
func isMapLine(s string) bool {
	_, _, err := splitKey("", 0, s)
	return err == nil
}

// splitKey splits `key: rest` at the first unquoted colon followed by a
// space or end of line.
func splitKey(file string, line int, s string) (key, rest string, err error) {
	if strings.HasPrefix(s, "'") || strings.HasPrefix(s, "\"") {
		return "", "", errAt(file, line, "quoted mapping keys are not supported by the scenario subset")
	}
	for i := 0; i < len(s); i++ {
		if s[i] != ':' {
			continue
		}
		if i+1 == len(s) {
			return strings.TrimSpace(s[:i]), "", nil
		}
		if s[i+1] == ' ' {
			return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), nil
		}
	}
	return "", "", errAt(file, line, "expected `key: value`, got %q", s)
}

// parseScalarOrList parses an inline value: a flow list `[a, b]` or a
// scalar.
func parseScalarOrList(file string, line int, s string) (*node, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, errAt(file, line, "inline list %q is not closed", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		n := &node{line: line, isSeq: true}
		if inner == "" {
			return n, nil
		}
		items, err := splitFlowItems(file, line, inner)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			sc, err := parseScalar(file, line, it)
			if err != nil {
				return nil, err
			}
			n.items = append(n.items, sc)
		}
		return n, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, errAt(file, line, "inline flow mappings are not supported by the scenario subset")
	}
	if strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">") {
		return nil, errAt(file, line, "anchors, aliases and block scalars are not supported by the scenario subset")
	}
	return parseScalar(file, line, s)
}

// splitFlowItems splits the interior of an inline list on unquoted
// commas.
func splitFlowItems(file string, line int, s string) ([]string, error) {
	var out []string
	var quote byte
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0:
			if c == quote && !(quote == '"' && i > 0 && s[i-1] == '\\') {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '[' || c == ']':
			return nil, errAt(file, line, "nested inline lists are not supported by the scenario subset")
		case c == ',':
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if quote != 0 {
		return nil, errAt(file, line, "unterminated quote in inline list")
	}
	out = append(out, strings.TrimSpace(s[start:]))
	for _, it := range out {
		if it == "" {
			return nil, errAt(file, line, "empty item in inline list")
		}
	}
	return out, nil
}

// parseScalar unquotes a scalar value.
func parseScalar(file string, line int, s string) (*node, error) {
	switch {
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, errAt(file, line, "unterminated single-quoted scalar %q", s)
		}
		body := s[1 : len(s)-1]
		if strings.Contains(strings.ReplaceAll(body, "''", ""), "'") {
			return nil, errAt(file, line, "stray quote inside single-quoted scalar %q", s)
		}
		return &node{line: line, scalar: strings.ReplaceAll(body, "''", "'"), quoted: true}, nil
	case strings.HasPrefix(s, "\""):
		if len(s) < 2 || !strings.HasSuffix(s, "\"") || strings.HasSuffix(s, "\\\"") {
			return nil, errAt(file, line, "unterminated double-quoted scalar %q", s)
		}
		body := s[1 : len(s)-1]
		var b strings.Builder
		for i := 0; i < len(body); i++ {
			if body[i] != '\\' {
				b.WriteByte(body[i])
				continue
			}
			i++
			if i == len(body) {
				return nil, errAt(file, line, "dangling escape in %q", s)
			}
			switch body[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"':
				b.WriteByte(body[i])
			default:
				return nil, errAt(file, line, "unsupported escape \\%c in %q", body[i], s)
			}
		}
		return &node{line: line, scalar: b.String(), quoted: true}, nil
	default:
		return &node{line: line, scalar: s}, nil
	}
}
