package spec

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
)

// decoder walks a node tree into a Spec, rejecting unknown fields and type
// mismatches with the node's position. It never panics: FuzzSpecParse
// holds it to that.
type decoder struct {
	file string
}

func (d *decoder) errf(n *Node, format string, args ...any) error {
	return errAt(d.file, n.Line, n.Col, format, args...)
}

func (d *decoder) scalar(n *Node, field string) (*Node, error) {
	if n.Kind != KindScalar {
		return nil, d.errf(n, "field %s: expected a scalar, got a %s", field, n.Kind)
	}
	return n, nil
}

func (d *decoder) str(n *Node, field string) (string, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return "", err
	}
	return sc.Val, nil
}

func (d *decoder) boolVal(n *Node, field string) (bool, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return false, err
	}
	if sc.Quoted {
		return false, d.errf(n, "field %s: expected true or false, got the string %q", field, sc.Val)
	}
	switch sc.Val {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, d.errf(n, "field %s: expected true or false, got %q", field, sc.Val)
}

func (d *decoder) intVal(n *Node, field string) (int64, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(sc.Val, 10, 64)
	if perr != nil || sc.Quoted {
		return 0, d.errf(n, "field %s: cannot parse %q as an integer", field, sc.Val)
	}
	return v, nil
}

func (d *decoder) floatVal(n *Node, field string) (float64, error) {
	sc, err := d.scalar(n, field)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseFloat(sc.Val, 64)
	if perr != nil || sc.Quoted || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, d.errf(n, "field %s: cannot parse %q as a number", field, sc.Val)
	}
	return v, nil
}

// DecodeSpec decodes a parsed document (sans grid) into a defaulted,
// validated Spec.
func DecodeSpec(root *Node, file string) (*Spec, error) {
	s, err := decodeTree(root, file)
	if err != nil {
		return nil, err
	}
	if root.child("mode") == nil {
		return nil, errAt(file, root.Line, root.Col, "spec is missing the required field \"mode\"")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return s, nil
}

// decodeTree walks the document into a defaulted Spec, rejecting unknown
// fields and type mismatches with their position. Value rules are
// Validate's job.
func decodeTree(root *Node, file string) (*Spec, error) {
	d := &decoder{file: file}
	s := Default()
	if err := d.fields(root, reflect.ValueOf(s).Elem(), "", "spec"); err != nil {
		return nil, err
	}
	return s, nil
}

// fields decodes mapping n into struct v. A key names the field whose json
// tag it equals — the tag Canonical hashes — so a field is declared once, in
// the struct, and the decoder never lists one. A key no field carries is the
// positional unknown-field error, naming the section so a typo is easy to
// place.
func (d *decoder) fields(n *Node, v reflect.Value, prefix, section string) error {
	for i, key := range n.Keys {
		if prefix == "" && key == "grid" {
			continue // File.decodeAxes reads the grid
		}
		j, ok := tags[v.Type()][key]
		if !ok {
			return errAt(d.file, n.KeyLines[i], n.KeyCols[i], "unknown field %q in %s", key, section)
		}
		if err := d.value(n.Children[i], v.Field(j), prefix+key); err != nil {
			return err
		}
	}
	return nil
}

// tags maps each struct type in Spec to its fields' indexes by json tag,
// read once from the declarations (reflect's tag parsing is the decoder's
// main cost otherwise).
var tags = map[reflect.Type]map[string]int{}

func init() { indexTags(reflect.TypeOf(Spec{})) }

func indexTags(t reflect.Type) {
	m := map[string]int{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		m[f.Tag.Get("json")] = i
		if f.Type.Kind() == reflect.Struct {
			indexTags(f.Type)
		}
	}
	tags[t] = m
}

// value decodes node n into the field v at dotted path: a struct from a
// mapping, a leaf from a scalar of its kind.
func (d *decoder) value(n *Node, v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Struct:
		if n.Kind != KindMap {
			return d.errf(n, "section %s: expected nested keys, got a %s", path, n.Kind)
		}
		return d.fields(n, v, path+".", path)
	case reflect.String:
		x, err := d.str(n, path)
		v.SetString(x)
		return err
	case reflect.Bool:
		x, err := d.boolVal(n, path)
		v.SetBool(x)
		return err
	case reflect.Int, reflect.Int64:
		x, err := d.intVal(n, path)
		v.SetInt(x)
		return err
	case reflect.Float64:
		x, err := d.floatVal(n, path)
		v.SetFloat(x)
		return err
	}
	// TestSpecLeavesDecode keeps Spec free of kinds this switch lacks.
	return d.errf(n, "field %s: unsupported type %s", path, v.Type())
}

// Parse parses and decodes a spec document written in the YAML subset,
// returning the File handle grid expansion and hashing hang off. A JSON
// document (one whose first non-space byte is '{') is refused with an
// error that wraps ErrJSON and points at that byte.
func Parse(data []byte, file string) (*File, error) {
	if line, col, ok := jsonStart(data); ok {
		return nil, &posError{file: file, line: line, col: col, msg: ErrJSON.Error(), err: ErrJSON}
	}
	root, err := ParseYAML(data, file)
	if err != nil {
		return nil, err
	}
	f := &File{Path: file, root: root}
	if f.Spec, err = DecodeSpec(root, file); err != nil {
		return nil, err
	}
	if err := f.decodeAxes(); err != nil {
		return nil, err
	}
	return f, nil
}

// ErrJSON is the refusal of a JSON spec document: specs are written in the
// YAML subset ParseYAML accepts.
var ErrJSON = errors.New("JSON specs are not supported; write the spec in the YAML subset (see examples/*.yaml)")

// jsonStart reports the line and column of a leading '{', the first byte of
// a JSON object, after any whitespace.
func jsonStart(data []byte) (line, col int, ok bool) {
	line, col = 1, 1
	for _, b := range data {
		switch b {
		case '\n':
			line, col = line+1, 1
		case ' ', '\t', '\r':
			col++
		case '{':
			return line, col, true
		default:
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// decodeAxes extracts the grid section (axis path -> list of scalar
// values, in document order).
func (f *File) decodeAxes() error {
	d := &decoder{file: f.Path}
	g := f.root.child("grid")
	if g == nil {
		return nil
	}
	if g.Kind != KindMap {
		return d.errf(g, "section grid: expected axis paths mapped to value lists, got a %s", g.Kind)
	}
	for i, path := range g.Keys {
		v := g.Children[i]
		if v.Kind != KindList {
			return d.errf(v, "grid axis %q: expected a list of values, got a %s", path, v.Kind)
		}
		if len(v.Children) == 0 {
			return d.errf(v, "grid axis %q: empty value list", path)
		}
		ax := Axis{Path: path, Name: path[strings.LastIndex(path, ".")+1:]}
		for _, item := range v.Children {
			if item.Kind != KindScalar {
				return d.errf(item, "grid axis %q: values must be scalars, got a %s", path, item.Kind)
			}
			ax.Values = append(ax.Values, item)
		}
		f.Axes = append(f.Axes, ax)
	}
	return nil
}
