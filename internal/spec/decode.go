package spec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"ustore/internal/faults"
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

// eachField iterates a mapping's entries through fn; fn returns false for
// a key it does not know, which becomes the positional unknown-field
// error (with the section name, so typos are easy to place).
func (d *decoder) eachField(n *Node, section string, fn func(key string, v *Node) (bool, error)) error {
	for i, key := range n.Keys {
		known, err := fn(key, n.Children[i])
		if err != nil {
			return err
		}
		if !known {
			return errAt(d.file, n.KeyLines[i], n.KeyCols[i], "unknown field %q in %s", key, section)
		}
	}
	return nil
}

// DecodeSpec decodes a parsed document (sans grid) into a defaulted,
// validated Spec.
func DecodeSpec(root *Node, file string) (*Spec, error) {
	s, err := decodeShape(root, file)
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

// decodeShape walks the document into a defaulted Spec, rejecting unknown
// fields and type mismatches with their position. Value rules are
// Validate's job.
func decodeShape(root *Node, file string) (*Spec, error) {
	d := &decoder{file: file}
	s := Default()
	if err := d.eachField(root, "spec", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "name":
			s.Name, err = d.str(v, "name")
		case "mode":
			s.Mode, err = d.str(v, "mode")
		case "seed":
			s.Seed, err = d.intVal(v, "seed")
		case "days":
			s.Days, err = d.floatVal(v, "days")
		case "faults":
			err = d.faultsSection(v, s)
		case "failure":
			err = d.failureSection(v, s)
		case "traffic":
			err = d.trafficSection(v, s)
		case "fleet":
			err = d.fleetSection(v, s)
		case "fidelity":
			err = d.fidelitySection(v, s)
		case "durability":
			err = d.durabilitySection(v, s)
		case "output":
			err = d.outputSection(v, s)
		case "grid":
			// handled by File.axes; skipped here
		default:
			return false, nil
		}
		return true, err
	}); err != nil {
		return nil, err
	}
	return s, nil
}

func (d *decoder) sectionMap(v *Node, name string) (*Node, error) {
	if v.Kind != KindMap {
		return nil, d.errf(v, "section %s: expected nested keys, got a %s", name, v.Kind)
	}
	return v, nil
}

func (d *decoder) faultsSection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "faults")
	if err != nil {
		return err
	}
	return d.eachField(m, "faults", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "host_crashes":
			s.Faults.HostCrashes, err = d.boolVal(v, "faults.host_crashes")
		case "disks":
			s.Faults.Disks, err = d.boolVal(v, "faults.disks")
		case "hubs":
			s.Faults.Hubs, err = d.boolVal(v, "faults.hubs")
		case "net":
			s.Faults.Net, err = d.boolVal(v, "faults.net")
		case "corruptions":
			s.Faults.Corruptions, err = d.boolVal(v, "faults.corruptions")
		case "gray":
			s.Faults.Gray, err = d.boolVal(v, "faults.gray")
		case "mitigation":
			s.Faults.Mitigation, err = d.boolVal(v, "faults.mitigation")
		case "pairs":
			var n int64
			n, err = d.intVal(v, "faults.pairs")
			s.Faults.Pairs = int(n)
		case "blocks_per_space":
			var n int64
			n, err = d.intVal(v, "faults.blocks_per_space")
			s.Faults.BlocksPerSpace = int(n)
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) failureSection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "failure")
	if err != nil {
		return err
	}
	return d.eachField(m, "failure", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "model":
			s.Failure.Model, err = d.str(v, "failure.model")
		case "age_years":
			s.Failure.AgeYears, err = d.floatVal(v, "failure.age_years")
		case "infant_afr":
			s.Failure.InfantAFR, err = d.floatVal(v, "failure.infant_afr")
		case "infant_decay_days":
			s.Failure.InfantDecayDays, err = d.floatVal(v, "failure.infant_decay_days")
		case "useful_afr":
			s.Failure.UsefulAFR, err = d.floatVal(v, "failure.useful_afr")
		case "wear_out_years":
			s.Failure.WearOutYears, err = d.floatVal(v, "failure.wear_out_years")
		case "wear_out_rise":
			s.Failure.WearOutRise, err = d.floatVal(v, "failure.wear_out_rise")
		case "batch_size":
			var n int64
			n, err = d.intVal(v, "failure.batch_size")
			s.Failure.BatchSize = int(n)
		case "batch_shock":
			s.Failure.BatchShock, err = d.floatVal(v, "failure.batch_shock")
		case "batch_window_days":
			s.Failure.BatchWindowDays, err = d.floatVal(v, "failure.batch_window_days")
		case "ure_bits":
			// Accept the two named measurement points or a number.
			if str, serr := d.str(v, "failure.ure_bits"); serr == nil {
				switch str {
				case "spec":
					s.Failure.UREBits = faults.SpecUREBits
					return true, nil
				case "observed":
					s.Failure.UREBits = faults.ObservedUREBits
					return true, nil
				case "off":
					s.Failure.UREBits = 0
					return true, nil
				}
			}
			s.Failure.UREBits, err = d.floatVal(v, "failure.ure_bits")
			if err != nil {
				err = d.errf(v, "field failure.ure_bits: want a number of bits-per-error, \"spec\", \"observed\", or \"off\"")
			}
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) trafficSection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "traffic")
	if err != nil {
		return err
	}
	return d.eachField(m, "traffic", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "storm":
			s.Traffic.Storm, err = d.boolVal(v, "traffic.storm")
		case "protect":
			s.Traffic.Protect, err = d.boolVal(v, "traffic.protect")
		case "stream_quantiles":
			s.Traffic.StreamQuantiles, err = d.boolVal(v, "traffic.stream_quantiles")
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) fleetSection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "fleet")
	if err != nil {
		return err
	}
	return d.eachField(m, "fleet", func(key string, v *Node) (bool, error) {
		var n int64
		var err error
		switch key {
		case "units":
			n, err = d.intVal(v, "fleet.units")
			s.Fleet.Units = int(n)
		case "shards":
			n, err = d.intVal(v, "fleet.shards")
			s.Fleet.Shards = int(n)
		case "clients":
			n, err = d.intVal(v, "fleet.clients")
			s.Fleet.Clients = int(n)
		case "volumes":
			n, err = d.intVal(v, "fleet.volumes")
			s.Fleet.Volumes = int(n)
		case "unit_loss":
			s.Fleet.UnitLoss, err = d.boolVal(v, "fleet.unit_loss")
		case "engine_workers":
			n, err = d.intVal(v, "fleet.engine_workers")
			s.Fleet.EngineWorkers = int(n)
		case "crashes":
			n, err = d.intVal(v, "fleet.crashes")
			s.Fleet.Crashes = int(n)
		case "partitions":
			n, err = d.intVal(v, "fleet.partitions")
			s.Fleet.Partitions = int(n)
		case "slot_moves":
			n, err = d.intVal(v, "fleet.slot_moves")
			s.Fleet.SlotMoves = int(n)
		case "fault_window_sec":
			s.Fleet.FaultWindowSec, err = d.floatVal(v, "fleet.fault_window_sec")
		case "skip_redrive":
			s.Fleet.SkipRedrive, err = d.boolVal(v, "fleet.skip_redrive")
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) fidelitySection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "fidelity")
	if err != nil {
		return err
	}
	return d.eachField(m, "fidelity", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "check":
			s.Fidelity.Check, err = d.str(v, "fidelity.check")
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) durabilitySection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "durability")
	if err != nil {
		return err
	}
	return d.eachField(m, "durability", func(key string, v *Node) (bool, error) {
		var n int64
		var err error
		switch key {
		case "scheme":
			s.Durability.Scheme, err = d.str(v, "durability.scheme")
		case "disks":
			n, err = d.intVal(v, "durability.disks")
			s.Durability.Disks = int(n)
		case "disk_tb":
			s.Durability.DiskTB, err = d.floatVal(v, "durability.disk_tb")
		case "years":
			s.Durability.Years, err = d.floatVal(v, "durability.years")
		case "repair_hours":
			s.Durability.RepairHours, err = d.floatVal(v, "durability.repair_hours")
		case "trials":
			n, err = d.intVal(v, "durability.trials")
			s.Durability.Trials = int(n)
		default:
			return false, nil
		}
		return true, err
	})
}

func (d *decoder) outputSection(v *Node, s *Spec) error {
	m, err := d.sectionMap(v, "output")
	if err != nil {
		return err
	}
	return d.eachField(m, "output", func(key string, v *Node) (bool, error) {
		var err error
		switch key {
		case "log":
			s.Output.Log, err = d.boolVal(v, "output.log")
		default:
			return false, nil
		}
		return true, err
	})
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
