// Package soa provides the service-oriented-architecture substrate of
// Sec. 3–4 of the paper: service descriptions advertising QoS through
// XML documents, a UDDI-style registry for publication and discovery,
// the translation of QoS documents into soft constraints (the step
// the paper's broker performs before negotiating), and Service Level
// Agreements as the outcome of successful negotiations.
package soa

import (
	"encoding/xml"
	"fmt"
	"math"

	"softsoa/internal/core"
	"softsoa/internal/semiring"
)

// Metric names how a QoS attribute composes across a resource range
// and across services.
type Metric string

const (
	// MetricCost is additive (weighted semiring): money, hours,
	// downtime. Lower is better.
	MetricCost Metric = "cost"
	// MetricReliability is multiplicative (probabilistic semiring):
	// success probabilities in [0,1]. Higher is better.
	MetricReliability Metric = "reliability"
	// MetricPreference is concave (fuzzy semiring): qualitative
	// levels in [0,1] combined by min.
	MetricPreference Metric = "preference"
	// MetricDowntime is additive (weighted semiring): expected
	// downtime accumulates across composed services and is minimised
	// — the paper's "minimize the downtime of the service components"
	// reading of availability.
	MetricDowntime Metric = "downtime"
)

// Valid reports whether the metric is one of the supported kinds.
func (m Metric) Valid() bool {
	switch m {
	case MetricCost, MetricReliability, MetricPreference, MetricDowntime:
		return true
	}
	return false
}

// Attribute is one QoS attribute of a service, expressed — as in the
// paper's example "the reliability is equal to 80% plus 5% for each
// other processor" — as an affine function of a resource variable:
// value(x) = Base + PerUnit·x, with x ranging over [0, MaxUnits].
// Cost attributes are in arbitrary cost units; reliability and
// preference attributes are percentages (0–100) clamped into [0,1]
// after translation.
type Attribute struct {
	// Name labels the attribute ("responseTime", "uptime", …).
	Name string `xml:"name,attr"`
	// Metric selects the composition semantics.
	Metric Metric `xml:"metric,attr"`
	// Base is the value at zero resource units.
	Base float64 `xml:"base,attr"`
	// PerUnit is the change per resource unit.
	PerUnit float64 `xml:"perUnit,attr"`
	// Resource names the resource variable ("processors", "failures").
	Resource string `xml:"resource,attr"`
	// MaxUnits bounds the resource range; the domain is [0, MaxUnits].
	MaxUnits int `xml:"maxUnits,attr"`
}

// Document is the XML QoS document a provider registers (the paper's
// "XML-based document [that] needs to be translated into a soft
// constraint").
type Document struct {
	XMLName  xml.Name `xml:"qos"`
	Service  string   `xml:"service,attr"`
	Provider string   `xml:"provider,attr"`
	// Region locates the provider's deployment; compositions crossing
	// regions pay a link penalty (see the broker's Composer).
	Region string `xml:"region,attr,omitempty"`
	// Capabilities lists the security/feature capabilities the
	// provider supports (e.g. "http-auth", "gzip"), matched against
	// client MUST/MAY policies (see internal/policy).
	Capabilities []string    `xml:"capability,omitempty"`
	Attributes   []Attribute `xml:"attribute"`
}

// Validate checks the document is translatable.
func (d *Document) Validate() error {
	if d.Service == "" {
		return fmt.Errorf("soa: QoS document without service name")
	}
	if d.Provider == "" {
		return fmt.Errorf("soa: QoS document without provider name")
	}
	if len(d.Attributes) == 0 {
		return fmt.Errorf("soa: QoS document for %q has no attributes", d.Service)
	}
	for _, a := range d.Attributes {
		if !a.Metric.Valid() {
			return fmt.Errorf("soa: attribute %q has unknown metric %q", a.Name, a.Metric)
		}
		if a.Resource == "" {
			return fmt.Errorf("soa: attribute %q names no resource", a.Name)
		}
		if a.MaxUnits < 0 {
			return fmt.Errorf("soa: attribute %q has negative MaxUnits", a.Name)
		}
	}
	return nil
}

// MarshalXML renders the document; kept as the default marshalling.
// Parse and Render are the convenience entry points.

// Parse decodes a QoS document from XML and validates it.
func Parse(data []byte) (*Document, error) {
	var d Document
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("soa: decode QoS document: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Render encodes the document as XML.
func (d *Document) Render() ([]byte, error) {
	out, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("soa: encode QoS document: %w", err)
	}
	return out, nil
}

// Attr returns the attribute for the given metric, if present.
func (d *Document) Attr(m Metric) (Attribute, bool) {
	for _, a := range d.Attributes {
		if a.Metric == m {
			return a, true
		}
	}
	return Attribute{}, false
}

// SemiringFor returns the c-semiring matching the metric over
// float64 carriers.
func SemiringFor(m Metric) (semiring.Semiring[float64], error) {
	switch m {
	case MetricCost, MetricDowntime:
		return semiring.Weighted{}, nil
	case MetricReliability:
		return semiring.Probabilistic{}, nil
	case MetricPreference:
		return semiring.Fuzzy{}, nil
	default:
		return nil, fmt.Errorf("soa: no semiring for metric %q", m)
	}
}

// ToConstraint translates the attribute into a soft constraint over
// the named resource variable, which must already be declared in the
// space. Cost values clamp below at 0; reliability and preference
// percentages divide by 100 and clamp into [0,1].
func (a Attribute) ToConstraint(s *core.Space[float64], resource core.Variable) (*core.Constraint[float64], error) {
	if !a.Metric.Valid() {
		return nil, fmt.Errorf("soa: attribute %q has unknown metric %q", a.Name, a.Metric)
	}
	if !s.HasVariable(resource) {
		return nil, fmt.Errorf("soa: resource variable %q not declared", resource)
	}
	return core.NewConstraint(s, []core.Variable{resource}, func(asst core.Assignment) float64 {
		return a.Level(asst.Num(resource))
	}), nil
}

// Level is the attribute's QoS level with the given number of resource
// units allocated: Base + PerUnit·units, clamped below at 0 for cost
// and downtime, and divided by 100 and clamped into [0,1] for the
// reliability and preference percentages.
func (a Attribute) Level(units float64) float64 {
	v := a.Base + a.PerUnit*units
	switch a.Metric {
	case MetricCost, MetricDowntime:
		return math.Max(0, v)
	default:
		return math.Max(0, math.Min(1, v/100))
	}
}

// ResourceDomain returns the resource domain [0, MaxUnits] declared
// by the attribute.
func (a Attribute) ResourceDomain() []core.DVal {
	return core.IntDomain(0, a.MaxUnits)
}
