package spec

import (
	"bytes"
	"strings"
	"testing"
)

const resourcesXML = `<resources>
 <cluster name="das2" bandwidth="92000" commlatency="6.4" complatency="0.7">
  <host name="das2-01" speed="1.0"/>
  <host name="das2-02" speed="1.0"/>
 </cluster>
 <cluster name="grail" bandwidth="565000" commlatency="1.0" complatency="0.5">
  <host name="dual" speed="1.0" cpus="2"/>
  <host name="slow" speed="0.5">
   <background meanon="90" meanoff="180" share="0.55"/>
  </host>
 </cluster>
</resources>`

func TestParseResources(t *testing.T) {
	res, err := ParseResources(strings.NewReader(resourcesXML))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("%d clusters", len(res.Clusters))
	}
	if res.Clusters[0].Name != "das2" || res.Clusters[0].Bandwidth != 92000 {
		t.Errorf("cluster 0: %+v", res.Clusters[0])
	}
	if res.Clusters[1].Hosts[1].Background == nil {
		t.Error("background load not parsed")
	}
}

func TestResourcesPlatform(t *testing.T) {
	res, err := ParseResources(strings.NewReader(resourcesXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := res.Platform("testbed")
	if err != nil {
		t.Fatal(err)
	}
	// 2 das2 hosts + dual (2 CPUs) + slow = 5 workers.
	if len(p.Workers) != 5 {
		t.Fatalf("%d workers, want 5", len(p.Workers))
	}
	if p.Workers[0].CommLatency != 6.4 || p.Workers[0].Bandwidth != 92000 {
		t.Errorf("das2 worker: %+v", p.Workers[0])
	}
	if p.Workers[2].Name != "dual/cpu0" || p.Workers[3].Name != "dual/cpu1" {
		t.Errorf("dual CPU names: %q, %q", p.Workers[2].Name, p.Workers[3].Name)
	}
	slow := p.Workers[4]
	if slow.Speed != 0.5 || slow.Background == nil || slow.Background.Share != 0.55 {
		t.Errorf("slow worker: %+v", slow)
	}
	for i, w := range p.Workers {
		if w.ID != i {
			t.Errorf("worker %d has ID %d", i, w.ID)
		}
	}
}

func TestResourcesPlatformRejectsBadBandwidth(t *testing.T) {
	bad := `<resources><cluster name="c" bandwidth="0"><host name="h" speed="1"/></cluster></resources>`
	res, err := ParseResources(strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Platform("x"); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestResourcesEncodeRoundTrip(t *testing.T) {
	res, err := ParseResources(strings.NewReader(resourcesXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encodeXML(&buf, res); err != nil {
		t.Fatal(err)
	}
	again, err := ParseResources(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := res.Platform("x")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := again.Platform("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Workers) != len(p2.Workers) {
		t.Errorf("round trip changed worker count: %d vs %d", len(p1.Workers), len(p2.Workers))
	}
}

func TestParseResourcesGarbage(t *testing.T) {
	if _, err := ParseResources(strings.NewReader("not xml")); err == nil {
		t.Error("garbage accepted")
	}
}
