package spec

import (
	"bytes"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apstdv/internal/divide"
)

// figure1XML is the paper's Figure 1 specification, verbatim.
const figure1XML = `<task
executable="a_divisible_app"
input="bigfile"
>
<divisibility
input="bigfile"
method="uniform"
start="0"
steptype="bytes"
stepsize="10"
algorithm="rumr"
probe="probefile"
/>
</task>`

// figure6XML is the paper's Figure 6 case-study specification, verbatim.
const figure6XML = `<task
 executable="run_mencoder.sh"
 arguments="input.avi mpeg4.avi"
 input="input.avi"
 output="mpeg4.avi"
>
 <divisibility
  input="input.avi"
  method="callback"
  load="1830"
  callback="callback_avisplit.pl"
  arguments="input.avi"
  algorithm="rumr"
  probe="probe.avi"
  probe_load="21"
 />
</task>`

func TestParseFigure1(t *testing.T) {
	task, err := Parse(strings.NewReader(figure1XML))
	if err != nil {
		t.Fatal(err)
	}
	if task.Executable != "a_divisible_app" || task.Input != "bigfile" {
		t.Errorf("task attrs: %+v", task)
	}
	d := task.Divisibility
	if d.Method != MethodUniform || d.StepType != StepBytes || d.StepSize != 10 {
		t.Errorf("divisibility: %+v", d)
	}
	if d.Algorithm != "rumr" || d.Probe != "probefile" || d.Start != 0 {
		t.Errorf("divisibility attrs: %+v", d)
	}
}

func TestParseFigure6(t *testing.T) {
	task, err := Parse(strings.NewReader(figure6XML))
	if err != nil {
		t.Fatal(err)
	}
	if task.Arguments != "input.avi mpeg4.avi" || task.Output != "mpeg4.avi" {
		t.Errorf("task attrs: %+v", task)
	}
	d := task.Divisibility
	if d.Method != MethodCallback || d.Load != 1830 || d.ProbeLoad != 21 {
		t.Errorf("divisibility: %+v", d)
	}
	if d.Callback != "callback_avisplit.pl" || d.Arguments != "input.avi" {
		t.Errorf("callback attrs: %+v", d)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	task, err := Parse(strings.NewReader(figure6XML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeXML(&buf, task); err != nil {
		t.Fatal(err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if *again.Divisibility != *task.Divisibility {
		t.Errorf("round trip changed divisibility:\n%+v\n%+v", task.Divisibility, again.Divisibility)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name, xml, want string
	}{
		{"no executable", `<task><divisibility input="x" method="uniform" steptype="bytes" stepsize="1"/></task>`, "executable"},
		{"no divisibility", `<task executable="e"/>`, "divisibility"},
		{"no input", `<task executable="e"><divisibility method="uniform" steptype="bytes" stepsize="1"/></task>`, "input"},
		{"no method", `<task executable="e"><divisibility input="x"/></task>`, "method"},
		{"bad method", `<task executable="e"><divisibility input="x" method="magic"/></task>`, "unknown division method"},
		{"no steptype", `<task executable="e"><divisibility input="x" method="uniform"/></task>`, "steptype"},
		{"bad steptype", `<task executable="e"><divisibility input="x" method="uniform" steptype="frames"/></task>`, "steptype"},
		{"zero stepsize", `<task executable="e"><divisibility input="x" method="uniform" steptype="bytes" stepsize="0"/></task>`, "stepsize"},
		{"long separator", `<task executable="e"><divisibility input="x" method="uniform" steptype="separator" separator="ab"/></task>`, "separator"},
		{"no indexfile", `<task executable="e"><divisibility input="x" method="index"/></task>`, "indexfile"},
		{"no callback", `<task executable="e"><divisibility input="x" method="callback" load="10"/></task>`, "callback"},
		{"no load", `<task executable="e"><divisibility input="x" method="callback" callback="cb"/></task>`, "load"},
		{"bad algorithm", `<task executable="e"><divisibility input="x" method="uniform" steptype="bytes" stepsize="1" algorithm="quantum-annealer"/></task>`, "unknown algorithm"},
		{"negative start", `<task executable="e"><divisibility input="x" method="uniform" steptype="bytes" stepsize="1" start="-5"/></task>`, "start"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.xml))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Parse = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestBuildDividerUniformBytes(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bigfile"), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	task, err := Parse(strings.NewReader(figure1XML))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.BuildDivider(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalLoad() != 100 {
		t.Errorf("total = %g, want file size 100", d.TotalLoad())
	}
	if got := d.CutAfter(0, 42); got != 40 {
		t.Errorf("cut near 42 = %g, want 40 (stepsize 10)", got)
	}
}

func TestBuildDividerSeparator(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "recs"), []byte("aa\nbbb\ncc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	xml := `<task executable="e"><divisibility input="recs" method="uniform" steptype="separator" separator="&#10;"/></task>`
	task, err := Parse(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.BuildDivider(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CutAfter(0, 4); got != 3 {
		t.Errorf("cut near 4 = %g, want 3 (after first newline)", got)
	}
}

func TestBuildDividerIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "data"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "data.idx"), []byte("100\n400\n900\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	xml := `<task executable="e"><divisibility input="data" method="index" indexfile="data.idx"/></task>`
	task, err := Parse(strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.BuildDivider(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CutAfter(0, 300); got != 400 {
		t.Errorf("cut near 300 = %g, want 400", got)
	}
}

func TestBuildDividerCallback(t *testing.T) {
	task, err := Parse(strings.NewReader(figure6XML))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.BuildDivider(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalLoad() != 1830 {
		t.Errorf("total = %g, want 1830 frames", d.TotalLoad())
	}
	if got := d.CutAfter(0, 20.4); got != 20 {
		t.Errorf("frame cut = %g, want 20", got)
	}
}

func TestBuildDividerMissingInput(t *testing.T) {
	task, err := Parse(strings.NewReader(figure1XML))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.BuildDivider(t.TempDir()); err == nil {
		t.Error("missing input file accepted")
	}
}

func TestBuildMaterializer(t *testing.T) {
	task, err := Parse(strings.NewReader(figure1XML))
	if err != nil {
		t.Fatal(err)
	}
	m, err := task.BuildMaterializer("/data")
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := m.(divide.FileRange)
	if !ok {
		t.Fatalf("materializer type %T", m)
	}
	if fr.Path != "/data/bigfile" {
		t.Errorf("path = %q", fr.Path)
	}

	cb, err := Parse(strings.NewReader(figure6XML))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := cb.BuildMaterializer("/data")
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := m2.(divide.CallbackProgram)
	if !ok {
		t.Fatalf("materializer type %T", m2)
	}
	if cp.Program != "/data/callback_avisplit.pl" || len(cp.Args) != 1 || cp.Args[0] != "input.avi" {
		t.Errorf("callback = %+v", cp)
	}
}

func TestBuildDividerMultiFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "part1"), make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "part2"), make([]byte, 60), 0o644); err != nil {
		t.Fatal(err)
	}
	xmlDoc := `<task executable="e"><divisibility input="part1 part2" method="uniform" steptype="bytes" stepsize="10"/></task>`
	task, err := Parse(strings.NewReader(xmlDoc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := task.BuildDivider(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalLoad() != 160 {
		t.Errorf("total = %g, want 100+60", d.TotalLoad())
	}
	// Cuts align to 10-byte steps within each file; the file boundary at
	// 100 caps any request from inside part1.
	if got := d.CutAfter(95, 130); got != 100 {
		t.Errorf("CutAfter(95, 130) = %g, want the file boundary 100", got)
	}
	if got := d.CutAfter(100, 124); got != 120 {
		t.Errorf("CutAfter(100, 124) = %g, want 120", got)
	}
}

func TestResourcesBatchElement(t *testing.T) {
	xmlDoc := `<resources>
 <cluster name="c" bandwidth="1000" commlatency="1" complatency="0.5">
  <batch cycleinterval="15" dispatchjitter="0.2"/>
  <host name="h1" speed="1"/>
 </cluster>
</resources>`
	res, err := ParseResources(strings.NewReader(xmlDoc))
	if err != nil {
		t.Fatal(err)
	}
	p, err := res.Platform("x")
	if err != nil {
		t.Fatal(err)
	}
	b := p.Workers[0].Batch
	if b == nil || b.CycleInterval != 15 || b.DispatchJitterCV != 0.2 {
		t.Errorf("batch config not carried: %+v", b)
	}
}

// encodeXML writes a parsed specification back out as indented XML:
// what the round-trip tests parse again.
func encodeXML(w io.Writer, v any) error {
	enc := xml.NewEncoder(w)
	enc.Indent("", " ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
