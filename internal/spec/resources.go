package spec

import (
	"encoding/xml"
	"fmt"
	"io"
	"os"

	"apstdv/internal/model"
	"apstdv/internal/units"
)

// Resources is the platform description — a simplified form of APST's
// resource schema: clusters of hosts with per-cluster network
// characteristics and per-host speeds.
type Resources struct {
	XMLName  xml.Name  `xml:"resources"`
	Clusters []Cluster `xml:"cluster"`
}

// Cluster groups hosts sharing network characteristics (one leaf of the
// single-level tree DLS theory models).
type Cluster struct {
	Name string `xml:"name,attr"`
	// Bandwidth is the effective per-transfer rate from the master to
	// this cluster's hosts, in bytes/s.
	Bandwidth float64 `xml:"bandwidth,attr"`
	// CommLatency and CompLatency are the start-up costs in seconds.
	CommLatency float64 `xml:"commlatency,attr"`
	CompLatency float64 `xml:"complatency,attr"`
	// Batch describes the cluster's batch scheduler, when access is not
	// interactive (SGE/PBS in the paper's testbed).
	Batch *BatchXML `xml:"batch"`
	Hosts []Host    `xml:"host"`
}

// Host is one worker.
type Host struct {
	Name string `xml:"name,attr"`
	// Speed is the relative compute speed (1.0 = reference).
	Speed float64 `xml:"speed,attr"`
	// CPUs makes the host contribute several workers (the case study's
	// dual-processor machine). 0 means 1.
	CPUs int `xml:"cpus,attr,omitempty"`
	// Background CPU contention for non-dedicated hosts.
	Background *BackgroundXML `xml:"background"`
}

// BackgroundXML mirrors model.BackgroundLoad in the resource schema.
type BackgroundXML struct {
	MeanOn  float64 `xml:"meanon,attr"`
	MeanOff float64 `xml:"meanoff,attr"`
	Share   float64 `xml:"share,attr"`
}

// BatchXML mirrors model.BatchQueue in the resource schema.
type BatchXML struct {
	CycleInterval    float64 `xml:"cycleinterval,attr,omitempty"`
	DispatchJitterCV float64 `xml:"dispatchjitter,attr,omitempty"`
	ExternalRate     float64 `xml:"externalrate,attr,omitempty"`
	ExternalMeanHold float64 `xml:"externalhold,attr,omitempty"`
}

// ParseResources reads a resource description from XML. Every float
// attribute must be a finite number.
func ParseResources(r io.Reader) (*Resources, error) {
	var res Resources
	if err := xml.NewDecoder(r).Decode(&res); err != nil {
		return nil, fmt.Errorf("spec: resources: %w", err)
	}
	for i := range res.Clusters {
		if err := res.Clusters[i].finite(); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// finite refuses NaN and ±Inf in the cluster's float attributes and
// those of its batch queue and hosts.
func (cl *Cluster) finite() error {
	err := checkFinite("cluster "+cl.Name, []floatAttr{
		{"bandwidth", cl.Bandwidth}, {"commlatency", cl.CommLatency}, {"complatency", cl.CompLatency},
	})
	if b := cl.Batch; err == nil && b != nil {
		err = checkFinite("batch of cluster "+cl.Name, []floatAttr{
			{"cycleinterval", b.CycleInterval}, {"dispatchjitter", b.DispatchJitterCV},
			{"externalrate", b.ExternalRate}, {"externalhold", b.ExternalMeanHold},
		})
	}
	for _, h := range cl.Hosts {
		if err != nil {
			return err
		}
		err = checkFinite("host "+h.Name, []floatAttr{{"speed", h.Speed}})
		if bg := h.Background; err == nil && bg != nil {
			err = checkFinite("background of host "+h.Name, []floatAttr{
				{"meanon", bg.MeanOn}, {"meanoff", bg.MeanOff}, {"share", bg.Share},
			})
		}
	}
	return err
}

// ParseResourcesFile reads a resource description from a file.
func ParseResourcesFile(path string) (*Resources, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseResources(f)
}

// Platform converts the description into the model the engine runs on.
func (r *Resources) Platform(name string) (*model.Platform, error) {
	p := &model.Platform{Name: name}
	for _, cl := range r.Clusters {
		if cl.Bandwidth <= 0 {
			return nil, fmt.Errorf("spec: cluster %q has non-positive bandwidth %g", cl.Name, cl.Bandwidth)
		}
		var batch *model.BatchQueue
		if cl.Batch != nil {
			batch = &model.BatchQueue{
				CycleInterval:    units.Seconds(cl.Batch.CycleInterval),
				DispatchJitterCV: cl.Batch.DispatchJitterCV,
				ExternalRate:     cl.Batch.ExternalRate,
				ExternalMeanHold: units.Seconds(cl.Batch.ExternalMeanHold),
			}
		}
		for _, h := range cl.Hosts {
			cpus := h.CPUs
			if cpus <= 0 {
				cpus = 1
			}
			var bg *model.BackgroundLoad
			if h.Background != nil {
				bg = &model.BackgroundLoad{
					MeanOn:  units.Seconds(h.Background.MeanOn),
					MeanOff: units.Seconds(h.Background.MeanOff),
					Share:   h.Background.Share,
				}
			}
			for c := 0; c < cpus; c++ {
				name := h.Name
				if cpus > 1 {
					name = fmt.Sprintf("%s/cpu%d", h.Name, c)
				}
				p.Workers = append(p.Workers, model.Worker{
					ID:          len(p.Workers),
					Name:        name,
					Cluster:     cl.Name,
					Speed:       h.Speed,
					CompLatency: units.Seconds(cl.CompLatency),
					Bandwidth:   units.Rate(cl.Bandwidth),
					CommLatency: units.Seconds(cl.CommLatency),
					Background:  bg,
					Batch:       batch,
				})
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
