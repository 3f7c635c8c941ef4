package churn

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EventKind enumerates churn trace events.
type EventKind uint8

// Trace event kinds.
const (
	EvJoin    EventKind = iota // peer enters the system
	EvLeave                    // peer departs definitively
	EvOnline                   // peer session starts
	EvOffline                  // peer session ends
)

var kindNames = [...]string{"join", "leave", "online", "offline"}

// String returns the kind's wire name ("join", "leave", ...).
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// parseEventKind parses the textual kind.
func parseEventKind(s string) (EventKind, error) {
	for i, n := range kindNames {
		if n == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("churn: unknown event kind %q", s)
}

// NoProfile marks an event whose peer's behaviour profile is unknown
// (legacy three-column traces, externally measured data).
const NoProfile int16 = -1

// Event is one churn event for one peer. Profile is the peer's
// behaviour-profile index at the time of the event (NoProfile when
// unknown); replay uses it to restore per-profile attribution.
type Event struct {
	Round   int64
	Peer    int32
	Kind    EventKind
	Profile int16
}

// Trace is an ordered log of churn events, recordable from a simulation
// run and replayable into another: sim.Config.RecordTrace captures one,
// sim.Config.Replay consumes one.
type Trace struct {
	Events []Event
}

// AppendProfile adds an event carrying the peer's profile index.
func (t *Trace) AppendProfile(round int64, peer int32, kind EventKind, profile int16) {
	t.Events = append(t.Events, Event{Round: round, Peer: peer, Kind: kind, Profile: profile})
}

// MaxPeer returns the largest peer id in the trace, or -1 for an empty
// trace. Replay sizes its population as MaxPeer()+1.
func (t *Trace) MaxPeer() int32 {
	max := int32(-1)
	for _, e := range t.Events {
		if e.Peer > max {
			max = e.Peer
		}
	}
	return max
}

// LastRound returns the round of the latest event, or -1 for an empty
// trace. A replayed run is naturally bounded by it: beyond that round
// the trace specifies no churn at all.
func (t *Trace) LastRound() int64 {
	last := int64(-1)
	for _, e := range t.Events {
		if e.Round > last {
			last = e.Round
		}
	}
	return last
}

// kindSortPriority orders same-round events of one peer slot so that a
// departure precedes the replacement's join (slots are reused in the
// same round); otherwise Lifetimes would pair the new join with the old
// leave and report zero-length lives. Session events follow the join.
var kindSortPriority = [...]int{EvJoin: 1, EvLeave: 0, EvOnline: 2, EvOffline: 2}

// eventLess is the engine order: round, then peer, then kind priority
// (leave before the replacement's join, session events last).
func eventLess(a, b Event) bool {
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	return kindSortPriority[a.Kind] < kindSortPriority[b.Kind]
}

// Sort orders events by round, then peer, then kind (leave before
// join), making traces comparable across runs.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		return eventLess(t.Events[i], t.Events[j])
	})
}

// IsSorted reports whether the events are already in engine order.
// Traces written by Sort, tracegen and the engine's recorder are;
// replay uses this to skip a per-run copy and re-sort.
func (t *Trace) IsSorted() bool {
	for i := 1; i < len(t.Events); i++ {
		if eventLess(t.Events[i], t.Events[i-1]) {
			return false
		}
	}
	return true
}

// Lifetimes extracts completed lifetimes (leave round - join round) per
// peer, the input to lifetime-model fitting. Peers that never leave are
// excluded.
func (t *Trace) Lifetimes() []float64 {
	joins := make(map[int32]int64)
	var out []float64
	for _, e := range t.Events {
		switch e.Kind {
		case EvJoin:
			joins[e.Peer] = e.Round
		case EvLeave:
			if j, ok := joins[e.Peer]; ok {
				if d := e.Round - j; d > 0 {
					out = append(out, float64(d))
				}
				delete(joins, e.Peer)
			}
		}
	}
	return out
}

// csvHeader is the four-column header WriteCSV emits; ReadCSV also
// accepts the legacy three-column "round,peer,kind".
const csvHeader = "round,peer,kind,profile"

// WriteCSV emits the trace as "round,peer,kind,profile" lines with a
// header. Unknown profiles are written as -1.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, csvHeader); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%d,%d,%s,%d\n", e.Round, e.Peer, e.Kind, e.Profile); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Legacy three-column
// traces (no profile) are accepted; their events carry NoProfile.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if first {
			first = false
			if text == csvHeader || text == "round,peer,kind" {
				continue
			}
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 && len(parts) != 4 {
			return nil, fmt.Errorf("churn: line %d: want 3 or 4 fields, got %d", line, len(parts))
		}
		round, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: bad round: %w", line, err)
		}
		peer, err := strconv.ParseInt(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: bad peer: %w", line, err)
		}
		kind, err := parseEventKind(parts[2])
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: %w", line, err)
		}
		profile := NoProfile
		if len(parts) == 4 {
			p, err := strconv.ParseInt(parts[3], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("churn: line %d: bad profile: %w", line, err)
			}
			profile = int16(p)
		}
		t.AppendProfile(round, int32(peer), kind, profile)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Events) == 0 {
		return nil, errors.New("churn: empty trace file")
	}
	return t, nil
}

// jsonEvent is the JSONL wire form of one event.
type jsonEvent struct {
	Round   int64  `json:"round"`
	Peer    int32  `json:"peer"`
	Kind    string `json:"kind"`
	Profile int16  `json:"profile"`
}

// WriteJSONL emits the trace as one JSON object per line:
//
//	{"round":0,"peer":3,"kind":"join","profile":1}
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range t.Events {
		if err := enc.Encode(jsonEvent{Round: e.Round, Peer: e.Peer, Kind: e.Kind.String(), Profile: e.Profile}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a trace written by WriteJSONL. A missing profile
// field decodes as 0, so externally supplied JSONL should set profile
// explicitly (use -1 for unknown).
func ReadJSONL(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal([]byte(text), &je); err != nil {
			return nil, fmt.Errorf("churn: line %d: %w", line, err)
		}
		kind, err := parseEventKind(je.Kind)
		if err != nil {
			return nil, fmt.Errorf("churn: line %d: %w", line, err)
		}
		t.AppendProfile(je.Round, je.Peer, kind, je.Profile)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Events) == 0 {
		return nil, errors.New("churn: empty trace file")
	}
	return t, nil
}

// jsonlExt reports whether a path names a JSONL trace.
func jsonlExt(path string) bool {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".jsonl", ".ndjson":
		return true
	}
	return false
}

// WriteTraceFile writes the trace to path, choosing the format by
// extension: .jsonl/.ndjson for JSONL, anything else CSV.
func WriteTraceFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if jsonlExt(path) {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteCSV(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// ReadTraceFile reads a trace from path, choosing the format by
// extension like WriteTraceFile.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if jsonlExt(path) {
		return ReadJSONL(f)
	}
	return ReadCSV(f)
}
