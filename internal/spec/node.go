// Package spec is the declarative experiment language of the repo: a
// YAML-subset document describing one scenario (topology, workload mix,
// fault schedule shape, failure model, protection policies, outputs) plus
// an optional parameter grid, compiled into the existing chaos / traffic /
// fleet option structs and swept by internal/campaign.
//
// Specs are parsed into a positional node tree first (every node knows its
// line and column), then decoded field by field, so every rejection — an
// unknown field, a type mismatch, a tab in the indentation — points at the
// offending spot in the file. FuzzSpecParse holds the parser to "never
// panic, always position".
//
// The split between the spec (what to run) and its content hash (identity
// of one grid cell, internal/spec/hash.go) follows GoSim's batchspec: the
// hash is computed over the *decoded, defaulted* cell, so reformatting the
// file, reordering keys, or adding comments never invalidates a cached
// result, while changing any value that reaches the simulation always
// does.
package spec

import (
	"fmt"
	"strings"
)

// Kind discriminates node shapes.
type Kind int

// Node kinds.
const (
	KindScalar Kind = iota
	KindMap
	KindList
)

func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindMap:
		return "mapping"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one positional element of a parsed spec document.
type Node struct {
	Line, Col int
	Kind      Kind

	// Scalar payload. Quoted distinguishes "true" (a string) from true (a
	// bool) at decode time.
	Val    string
	Quoted bool

	// Map payload: Keys[i] -> Children[i], in document order. KeyLines
	// holds each key's own position for error messages.
	Keys     []string
	KeyLines []int
	KeyCols  []int

	// List payload (also Children for maps — a map's Children are its
	// values; a list's are its items).
	Children []*Node
}

// child returns the map value for key, or nil.
func (n *Node) child(key string) *Node {
	for i, k := range n.Keys {
		if k == key {
			return n.Children[i]
		}
	}
	return nil
}

// setChild replaces key's value, appending the key if absent.
func (n *Node) setChild(key string, v *Node) {
	for i, k := range n.Keys {
		if k == key {
			n.Children[i] = v
			return
		}
	}
	n.Keys = append(n.Keys, key)
	n.KeyLines = append(n.KeyLines, v.Line)
	n.KeyCols = append(n.KeyCols, v.Col)
	n.Children = append(n.Children, v)
}

// clone deep-copies the node tree (grid expansion overrides cells on a
// private copy).
func (n *Node) clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Keys = append([]string(nil), n.Keys...)
	c.KeyLines = append([]int(nil), n.KeyLines...)
	c.KeyCols = append([]int(nil), n.KeyCols...)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.clone()
	}
	return &c
}

// posError is a parse or decode rejection anchored to a file position. err,
// when set, is the sentinel the rejection wraps.
type posError struct {
	file      string
	line, col int
	msg       string
	err       error
}

func (e *posError) Error() string {
	if e.line <= 0 {
		return fmt.Sprintf("%s: %s", e.file, e.msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", e.file, e.line, e.col, e.msg)
}

func (e *posError) Unwrap() error { return e.err }

func errAt(file string, line, col int, format string, args ...any) error {
	return &posError{file: file, line: line, col: col, msg: fmt.Sprintf(format, args...)}
}

// --- YAML-subset parser ---
//
// The supported subset is what experiment specs need and nothing more:
// nested mappings by two-or-more-space indentation, block lists of
// scalars ("- value"), inline flow lists of scalars ("[a, b, c]"),
// double-quoted strings with \-escapes, comments, and blank lines.
// Anchors, aliases, multi-document streams, block scalars, tabs, and
// nested structures inside list items are rejected with a position.

// yamlLine is one pre-split content line.
type yamlLine struct {
	no     int // 1-based line number
	indent int // leading spaces
	text   string
}

type yamlParser struct {
	file  string
	lines []yamlLine
	pos   int
}

// ParseYAML parses the supported YAML subset into a node tree. The root
// must be a mapping.
func ParseYAML(data []byte, file string) (*Node, error) {
	p := &yamlParser{file: file}
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSuffix(raw, "\r")
		stripped := stripComment(line)
		if strings.TrimSpace(stripped) == "" {
			continue
		}
		indent := 0
		for indent < len(stripped) && stripped[indent] == ' ' {
			indent++
		}
		if indent < len(stripped) && stripped[indent] == '\t' {
			return nil, errAt(file, i+1, indent+1, "tab in indentation (use spaces)")
		}
		p.lines = append(p.lines, yamlLine{no: i + 1, indent: indent, text: strings.TrimRight(stripped[indent:], " \t")})
	}
	if len(p.lines) == 0 {
		return nil, errAt(file, 0, 0, "empty spec")
	}
	if p.lines[0].indent != 0 {
		return nil, errAt(file, p.lines[0].no, 1, "top-level keys must start at column 1")
	}
	root, err := p.parseBlock(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, errAt(file, l.no, l.indent+1, "unexpected dedent/indent structure")
	}
	if root.Kind != KindMap {
		return nil, errAt(file, p.lines[0].no, 1, "spec root must be a mapping")
	}
	return root, nil
}

// stripComment removes a trailing "# ..." comment, honoring double quotes.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped char
			}
		case '"':
			inQuote = !inQuote
		case '#':
			if !inQuote && (i == 0 || line[i-1] == ' ' || line[i-1] == '\t') {
				return line[:i]
			}
		}
	}
	return line
}

// parseBlock parses the run of lines at exactly `indent` as one mapping or
// list node.
func (p *yamlParser) parseBlock(indent int) (*Node, error) {
	first := p.lines[p.pos]
	if strings.HasPrefix(first.text, "- ") || first.text == "-" {
		return p.parseList(indent)
	}
	return p.parseMap(indent)
}

func (p *yamlParser) parseMap(indent int) (*Node, error) {
	n := &Node{Line: p.lines[p.pos].no, Col: indent + 1, Kind: KindMap}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break // dedent closes this block
		}
		if l.indent > indent {
			return nil, errAt(p.file, l.no, l.indent+1, "unexpected indentation (no key opened a nested block here)")
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, errAt(p.file, l.no, l.indent+1, "list item in a mapping block")
		}
		key, rest, keyErr := splitKey(l.text)
		if keyErr != "" {
			return nil, errAt(p.file, l.no, l.indent+1, "%s", keyErr)
		}
		if n.child(key) != nil {
			return nil, errAt(p.file, l.no, l.indent+1, "duplicate key %q", key)
		}
		p.pos++
		var val *Node
		if rest == "" {
			// Value is a nested block (next line further indented) or an
			// empty scalar.
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				child, err := p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				val = child
			} else {
				val = &Node{Line: l.no, Col: l.indent + len(key) + 3, Kind: KindScalar, Val: ""}
			}
		} else {
			inline, err := p.parseInline(rest, l.no, l.indent+len(l.text)-len(rest)+1)
			if err != nil {
				return nil, err
			}
			val = inline
		}
		n.Keys = append(n.Keys, key)
		n.KeyLines = append(n.KeyLines, l.no)
		n.KeyCols = append(n.KeyCols, l.indent+1)
		n.Children = append(n.Children, val)
	}
	return n, nil
}

func (p *yamlParser) parseList(indent int) (*Node, error) {
	n := &Node{Line: p.lines[p.pos].no, Col: indent + 1, Kind: KindList}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, errAt(p.file, l.no, l.indent+1, "unexpected indentation inside a list")
		}
		if !strings.HasPrefix(l.text, "- ") && l.text != "-" {
			return nil, errAt(p.file, l.no, l.indent+1, "expected a '- ' list item")
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			return nil, errAt(p.file, l.no, l.indent+1, "empty or nested list items are not supported (list items must be scalars)")
		}
		if !strings.HasPrefix(rest, "\"") && (strings.HasSuffix(rest, ":") || strings.Contains(rest, ": ")) {
			return nil, errAt(p.file, l.no, l.indent+3, "mappings inside lists are not supported")
		}
		item, err := p.parseInline(rest, l.no, l.indent+3)
		if err != nil {
			return nil, err
		}
		p.pos++
		n.Children = append(n.Children, item)
	}
	return n, nil
}

// splitKey splits "key: rest" (or "key:" with empty rest). Keys may be
// bare (no colon/space trickery) or double-quoted.
func splitKey(text string) (key, rest, errMsg string) {
	if strings.HasPrefix(text, "\"") {
		end := -1
		for i := 1; i < len(text); i++ {
			if text[i] == '\\' {
				i++
				continue
			}
			if text[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", "", "unterminated quoted key"
		}
		k, err := unescape(text[1:end])
		if err != "" {
			return "", "", err
		}
		after := text[end+1:]
		if !strings.HasPrefix(after, ":") {
			return "", "", "expected ':' after quoted key"
		}
		return k, strings.TrimSpace(after[1:]), ""
	}
	i := strings.Index(text, ":")
	if i < 0 {
		return "", "", fmt.Sprintf("expected 'key: value', got %q", text)
	}
	key = strings.TrimSpace(text[:i])
	if key == "" {
		return "", "", "empty key"
	}
	rest = strings.TrimSpace(text[i+1:])
	if rest != "" && text[i+1] != ' ' {
		return "", "", fmt.Sprintf("expected a space after ':' in %q", text)
	}
	return key, rest, ""
}

// parseInline parses a scalar or a flow list of scalars.
func (p *yamlParser) parseInline(text string, line, col int) (*Node, error) {
	if strings.HasPrefix(text, "[") {
		if !strings.HasSuffix(text, "]") {
			return nil, errAt(p.file, line, col, "unterminated flow list")
		}
		n := &Node{Line: line, Col: col, Kind: KindList}
		body := strings.TrimSpace(text[1 : len(text)-1])
		if body == "" {
			return n, nil
		}
		items, err := splitFlowItems(body)
		if err != "" {
			return nil, errAt(p.file, line, col, "%s", err)
		}
		for _, it := range items {
			sc, err := p.parseScalar(strings.TrimSpace(it), line, col)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, sc)
		}
		return n, nil
	}
	if strings.HasPrefix(text, "{") {
		return nil, errAt(p.file, line, col, "flow mappings are not supported (use nested block keys)")
	}
	return p.parseScalar(text, line, col)
}

// splitFlowItems splits a flow-list body on commas outside quotes.
func splitFlowItems(body string) ([]string, string) {
	var items []string
	start, inQuote := 0, false
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if inQuote {
				i++
			}
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				items = append(items, body[start:i])
				start = i + 1
			}
		case '[', ']':
			if !inQuote {
				return nil, "nested flow lists are not supported"
			}
		}
	}
	if inQuote {
		return nil, "unterminated string in flow list"
	}
	items = append(items, body[start:])
	for _, it := range items {
		if strings.TrimSpace(it) == "" {
			return nil, "empty element in flow list"
		}
	}
	return items, ""
}

func (p *yamlParser) parseScalar(text string, line, col int) (*Node, error) {
	if strings.HasPrefix(text, "\"") {
		if len(text) < 2 || !strings.HasSuffix(text, "\"") {
			return nil, errAt(p.file, line, col, "unterminated string %q", text)
		}
		s, errMsg := unescape(text[1 : len(text)-1])
		if errMsg != "" {
			return nil, errAt(p.file, line, col, "%s", errMsg)
		}
		return &Node{Line: line, Col: col, Kind: KindScalar, Val: s, Quoted: true}, nil
	}
	if strings.HasPrefix(text, "'") || strings.HasPrefix(text, "&") || strings.HasPrefix(text, "*") ||
		strings.HasPrefix(text, "|") || strings.HasPrefix(text, ">") {
		return nil, errAt(p.file, line, col, "unsupported YAML syntax %q (subset: bare scalars, double-quoted strings, flow lists)", text)
	}
	return &Node{Line: line, Col: col, Kind: KindScalar, Val: text}, nil
}

// unescape processes \" \\ \n \t inside a double-quoted string.
func unescape(s string) (string, string) {
	if !strings.Contains(s, "\\") {
		return s, ""
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", "dangling backslash in string"
		}
		switch s[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		default:
			return "", fmt.Sprintf("unsupported escape \\%c", s[i])
		}
	}
	return b.String(), ""
}
