package spec

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// eachFloat calls fn with every float64 field reachable from v, named by
// its path: whatever float attributes the schema grows, an accepted
// document is checked for all of them.
func eachFloat(v reflect.Value, path string, fn func(path string, f float64)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachFloat(v.Elem(), path, fn)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachFloat(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachFloat(v.Index(i), fmt.Sprintf("%s[%d]", path, i), fn)
		}
	case reflect.Float64:
		fn(path, v.Float())
	}
}

// nonFinite returns the path of a NaN or ±Inf float in v, or "".
func nonFinite(v any) string {
	bad := ""
	eachFloat(reflect.ValueOf(v), "", func(path string, f float64) {
		if bad == "" && (math.IsNaN(f) || math.IsInf(f, 0)) {
			bad = path
		}
	})
	return bad
}

// FuzzParse feeds arbitrary bytes to both decoders of the XML interface,
// which a daemon exposes to anyone who can submit a job: neither may
// panic, and a document either decoder accepts holds only finite floats.
func FuzzParse(f *testing.F) {
	shipped, _ := filepath.Glob("../../examples/specs/*.xml")
	for _, path := range shipped {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(resourcesXML))
	f.Add([]byte(`<task executable="a"><divisibility input="i" method="callback" callback="c" load="10" probe_load="NaN"/></task>`))
	f.Add([]byte(`<resources><cluster name="c" bandwidth="+Inf" commlatency="1" complatency="1"><host name="h" speed="1"/></cluster></resources>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if task, err := Parse(bytes.NewReader(data)); err == nil {
			if path := nonFinite(task); path != "" {
				t.Fatalf("Parse accepted a non-finite %s", path)
			}
		}
		if res, err := ParseResources(bytes.NewReader(data)); err == nil {
			if path := nonFinite(res); path != "" {
				t.Fatalf("ParseResources accepted a non-finite %s", path)
			}
		}
	})
}

// TestParseRefusesNonFinite sets each float attribute of a task and of a
// resource description to NaN, +Inf and -Inf in turn. The task uses the
// index method, whose own checks read none of its float attributes: the
// rule holds whatever the method. NaN passes every range check, and
// before this rule a probe_load of NaN reached the engine and ended the
// daemon.
func TestParseRefusesNonFinite(t *testing.T) {
	resAttrs := []string{"bandwidth", "commlatency", "complatency", "cycleinterval", "dispatchjitter",
		"externalrate", "externalhold", "speed", "meanon", "meanoff", "share"}
	resDoc := func(attr, v string) string {
		vals := make([]any, len(resAttrs))
		for i, a := range resAttrs {
			vals[i] = "1"
			if a == attr {
				vals[i] = v
			}
		}
		return fmt.Sprintf(`<resources><cluster name="c" bandwidth="%s" commlatency="%s" complatency="%s">`+
			`<batch cycleinterval="%s" dispatchjitter="%s" externalrate="%s" externalhold="%s"/>`+
			`<host name="h" speed="%s"><background meanon="%s" meanoff="%s" share="%s"/></host>`+
			`</cluster></resources>`, vals...)
	}
	if _, err := ParseResources(strings.NewReader(resDoc("", ""))); err != nil {
		t.Fatalf("the finite resource description: %v", err)
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		for _, attr := range []string{"start", "stepsize", "load", "probe_load"} {
			doc := `<task executable="a"><divisibility input="i" method="index" indexfile="x" ` +
				attr + `="` + v + `"/></task>`
			if _, err := Parse(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("task %s=%s: err = %v, want a finite-number refusal", attr, v, err)
			}
		}
		for _, attr := range resAttrs {
			_, err := ParseResources(strings.NewReader(resDoc(attr, v)))
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("resources %s=%s: err = %v, want a finite-number refusal", attr, v, err)
			}
		}
	}
}
