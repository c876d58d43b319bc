// Package spec implements APST-DV's XML interface (§3.3): the task
// element with its divisibility child that describes a divisible load
// application, and the resource description that defines the platform.
// The schema mirrors the paper's Figures 1 and 6 attribute-for-attribute.
package spec

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"apstdv/internal/divide"
	"apstdv/internal/dls"
)

// Task is the <task> element: the application executable and its I/O,
// plus the divisibility specification.
type Task struct {
	XMLName    xml.Name `xml:"task"`
	Executable string   `xml:"executable,attr"`
	Arguments  string   `xml:"arguments,attr,omitempty"`
	Input      string   `xml:"input,attr,omitempty"`
	Output     string   `xml:"output,attr,omitempty"`

	Divisibility *Divisibility `xml:"divisibility"`
}

// Divisibility is the <divisibility> element APST-DV adds to APST's
// schema (Figure 1; Figure 6 shows the callback variant).
type Divisibility struct {
	// Input names the file(s) containing the load to divide.
	Input string `xml:"input,attr"`
	// Method selects the division method: uniform, index or callback.
	Method string `xml:"method,attr"`

	// Uniform method attributes.
	Start     float64 `xml:"start,attr,omitempty"`
	StepType  string  `xml:"steptype,attr,omitempty"` // "bytes" or "separator"
	StepSize  float64 `xml:"stepsize,attr,omitempty"`
	Separator string  `xml:"separator,attr,omitempty"`

	// Index method attribute.
	IndexFile string `xml:"indexfile,attr,omitempty"`

	// Callback method attributes. Load and ProbeLoad express the load
	// in application work units (the case study uses video frames).
	Callback  string  `xml:"callback,attr,omitempty"`
	Arguments string  `xml:"arguments,attr,omitempty"`
	Load      float64 `xml:"load,attr,omitempty"`
	ProbeLoad float64 `xml:"probe_load,attr,omitempty"`

	// Algorithm selects the DLS algorithm (rumr, umr, wf, simple-5, ...).
	Algorithm string `xml:"algorithm,attr"`
	// Probe names the representative probe input file.
	Probe string `xml:"probe,attr,omitempty"`
}

// Methods and step types accepted by Validate.
const (
	MethodUniform  = "uniform"
	MethodIndex    = "index"
	MethodCallback = "callback"

	StepBytes     = "bytes"
	StepSeparator = "separator"
)

// Parse reads a task specification from XML.
func Parse(r io.Reader) (*Task, error) {
	var t Task
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// ParseFile reads a task specification from a file.
func ParseFile(path string) (*Task, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Validate checks the specification for the errors a user could make.
func (t *Task) Validate() error {
	if t.Executable == "" {
		return fmt.Errorf("spec: task is missing the executable attribute")
	}
	d := t.Divisibility
	if d == nil {
		return fmt.Errorf("spec: task has no divisibility element (use plain APST for indivisible tasks)")
	}
	if d.Input == "" {
		return fmt.Errorf("spec: divisibility is missing the input attribute")
	}
	if err := checkFinite("divisibility", []floatAttr{
		{"start", d.Start}, {"stepsize", d.StepSize}, {"load", d.Load}, {"probe_load", d.ProbeLoad},
	}); err != nil {
		return err
	}
	if d.Algorithm != "" {
		if _, err := dls.New(d.Algorithm); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	switch d.Method {
	case MethodUniform:
		switch d.StepType {
		case StepBytes:
			if d.StepSize <= 0 {
				return fmt.Errorf("spec: uniform/bytes division needs a positive stepsize, got %g", d.StepSize)
			}
		case StepSeparator:
			if len(d.Separator) != 1 {
				return fmt.Errorf("spec: uniform/separator division needs a single-character separator, got %q", d.Separator)
			}
		case "":
			return fmt.Errorf("spec: uniform division is missing the steptype attribute")
		default:
			return fmt.Errorf("spec: unknown steptype %q (want %q or %q)", d.StepType, StepBytes, StepSeparator)
		}
		if d.Start < 0 {
			return fmt.Errorf("spec: negative start offset %g", d.Start)
		}
	case MethodIndex:
		if d.IndexFile == "" {
			return fmt.Errorf("spec: index division is missing the indexfile attribute")
		}
	case MethodCallback:
		if d.Callback == "" {
			return fmt.Errorf("spec: callback division is missing the callback attribute")
		}
		if d.Load <= 0 {
			return fmt.Errorf("spec: callback division needs a positive load (work units), got %g", d.Load)
		}
		if d.ProbeLoad < 0 {
			return fmt.Errorf("spec: negative probe_load %g", d.ProbeLoad)
		}
	case "":
		return fmt.Errorf("spec: divisibility is missing the method attribute")
	default:
		return fmt.Errorf("spec: unknown division method %q (want %s, %s or %s)",
			d.Method, MethodUniform, MethodIndex, MethodCallback)
	}
	return nil
}

// floatAttr is one float attribute of an element, for checkFinite.
type floatAttr struct {
	name string
	v    float64
}

// checkFinite refuses NaN and ±Inf in an element's float attributes.
// Every float attribute passes through it: NaN slips past every range
// check (each comparison is false), and the engine and the simulator
// take what a spec declares as given, so a non-finite value would
// surface as a non-finite event time deep inside a run.
func checkFinite(elem string, attrs []floatAttr) error {
	for _, a := range attrs {
		if math.IsNaN(a.v) || math.IsInf(a.v, 0) {
			return fmt.Errorf("spec: %s attribute %s is %g, not a finite number", elem, a.name, a.v)
		}
	}
	return nil
}

// BuildDivider constructs the Divider for this specification. For file
// sizes it consults the filesystem relative to dir (the directory the
// spec lives in); the separator and index methods read their inputs.
func (t *Task) BuildDivider(dir string) (divide.Divider, error) {
	d := t.Divisibility
	resolve := func(name string) string {
		if strings.HasPrefix(name, "/") || dir == "" {
			return name
		}
		return dir + "/" + name
	}
	switch d.Method {
	case MethodUniform:
		switch d.StepType {
		case StepBytes:
			// The input attribute may name several files ("the file(s)
			// that contain the load's input data", §3.3); they form one
			// logical load with file boundaries as implicit cut points.
			paths := strings.Fields(d.Input)
			if len(paths) > 1 {
				sizes := make([]float64, len(paths))
				largest := 0.0
				for i, p := range paths {
					info, err := os.Stat(resolve(p))
					if err != nil {
						return nil, fmt.Errorf("spec: input %s: %w", p, err)
					}
					sizes[i] = float64(info.Size())
					if sizes[i] > largest {
						largest = sizes[i]
					}
				}
				inner, err := divide.NewUniform(largest, d.Start, d.StepSize)
				if err != nil {
					return nil, err
				}
				return divide.NewMultiFile(sizes, inner)
			}
			info, err := os.Stat(resolve(d.Input))
			if err != nil {
				return nil, fmt.Errorf("spec: input %s: %w", d.Input, err)
			}
			u, err := divide.NewUniform(float64(info.Size()), d.Start, d.StepSize)
			if err != nil {
				return nil, err
			}
			return u, nil
		case StepSeparator:
			f, err := os.Open(resolve(d.Input))
			if err != nil {
				return nil, fmt.Errorf("spec: input %s: %w", d.Input, err)
			}
			defer f.Close()
			cuts, total, err := divide.ScanSeparators(f, d.Separator[0])
			if err != nil {
				return nil, err
			}
			return divide.NewIndex(total, cuts)
		}
	case MethodIndex:
		info, err := os.Stat(resolve(d.Input))
		if err != nil {
			return nil, fmt.Errorf("spec: input %s: %w", d.Input, err)
		}
		f, err := os.Open(resolve(d.IndexFile))
		if err != nil {
			return nil, fmt.Errorf("spec: indexfile %s: %w", d.IndexFile, err)
		}
		defer f.Close()
		cuts, err := divide.LoadIndexFile(f)
		if err != nil {
			return nil, err
		}
		return divide.NewIndex(float64(info.Size()), cuts)
	case MethodCallback:
		return divide.NewWorkUnits(int(d.Load))
	}
	return nil, fmt.Errorf("spec: unknown division method %q", d.Method)
}

// BuildMaterializer constructs the Materializer for this specification.
func (t *Task) BuildMaterializer(dir string) (divide.Materializer, error) {
	d := t.Divisibility
	resolve := func(name string) string {
		if strings.HasPrefix(name, "/") || dir == "" {
			return name
		}
		return dir + "/" + name
	}
	switch d.Method {
	case MethodUniform, MethodIndex:
		return divide.FileRange{Path: resolve(d.Input), BytesPerUnit: 1}, nil
	case MethodCallback:
		var args []string
		if d.Arguments != "" {
			args = strings.Fields(d.Arguments)
		}
		return divide.CallbackProgram{Program: resolve(d.Callback), Args: args}, nil
	}
	return nil, fmt.Errorf("spec: unknown division method %q", d.Method)
}
