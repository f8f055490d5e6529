package obs

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"
	"time"
)

// jsonEvent is the wire form of one event in the JSON trace stream:
// one object per line, stable snake_case keys, times in microseconds.
type jsonEvent struct {
	T       int64  `json:"t_us"`
	Kind    string `json:"kind"`
	Phase   string `json:"phase,omitempty"`
	II      int    `json:"ii"`
	Node    int    `json:"node"`
	Cluster int    `json:"cluster"`
	Victim  int    `json:"victim"`
	DurUS   int64  `json:"dur_us,omitempty"`
	OK      bool   `json:"ok,omitempty"`
}

// JSONObserver writes each event as one JSON object per line
// (JSON Lines). It is safe for concurrent use by many runs sharing one
// stream; the t_us field is the wall-clock offset from the observer's
// creation, so interleaved runs stay ordered.
type JSONObserver struct {
	mu    sync.Mutex
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewJSON returns a JSONObserver writing to w.
func NewJSON(w io.Writer) *JSONObserver {
	return &JSONObserver{enc: json.NewEncoder(w), start: time.Now()}
}

// CreateJSON returns a JSONObserver writing to the named file, or to
// stderr for "-", and a finish function that closes the file and
// returns the stream's first encoding, write or close error. A program
// that traces calls finish when its run is done, so a trace cut short
// by a full disk or a closed pipe does not pass silently.
func CreateJSON(path string) (*JSONObserver, func() error, error) {
	if path == "-" {
		j := NewJSON(os.Stderr)
		return j, j.Err, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	j := NewJSON(f)
	return j, func() error { return errors.Join(j.Err(), f.Close()) }, nil
}

// Err returns the first encoding or write error; after it the observer
// writes nothing more.
func (j *JSONObserver) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Event encodes e as one line. Encoding errors are sticky and stop
// further writes.
func (j *JSONObserver) Event(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(jsonEvent{
		T:       time.Since(j.start).Microseconds(),
		Kind:    e.Kind.String(),
		Phase:   e.Phase,
		II:      e.II,
		Node:    e.Node,
		Cluster: e.Cluster,
		Victim:  e.Victim,
		DurUS:   e.Dur.Microseconds(),
		OK:      e.OK,
	})
}
