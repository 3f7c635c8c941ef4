package stats

import (
	"encoding/json"
	"fmt"
)

// seriesJSON is the wire form of a Series. encoding/json renders
// float64 values with their shortest exact decimal representation, so a
// marshal/unmarshal round trip reproduces every point bit for bit —
// the property the campaign supervisor's worker protocol and journal
// rely on.
type seriesJSON struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// MarshalJSON encodes the series as {"name", "x", "y"}.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{Name: s.name, X: s.xs, Y: s.ys})
}

// UnmarshalJSON decodes the {"name", "x", "y"} wire form produced by
// MarshalJSON, replacing the receiver's contents. x and y must be of
// one length: At reads both.
func (s *Series) UnmarshalJSON(data []byte) error {
	var w seriesJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.X) != len(w.Y) {
		return fmt.Errorf("stats: series %q has %d x and %d y values", w.Name, len(w.X), len(w.Y))
	}
	s.name = w.Name
	s.xs = w.X
	s.ys = w.Y
	return nil
}
