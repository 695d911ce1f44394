package engine

import (
	"encoding/json"
	"testing"
)

// FuzzRequest fuzzes the network-facing request path a server runs on every
// submitted body: ParseRequest, then Compose without local file access. Any
// input must come back as a value or an error, never a panic, and composing
// the same bytes twice must give the same cache key.
func FuzzRequest(f *testing.F) {
	for _, req := range []Request{
		{Experiment: "fig3a", Seed: 7, CSV: true},
		{Experiment: "all", Trials: 2},
		{Experiment: "fig7a", Pages: -3},
		{Scenario: scenarioDoc("keyed"), Seed: 5, Pages: 2},
		{Scenario: json.RawMessage(`{"name": 3}`)},
		{Fleet: fleetDoc, Full: true},
		{ScenarioPath: "web.json"},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"experiment": "all", "bogus": 1}`))
	f.Add([]byte(`{"experiment": "all"} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		compose := func() (*Plan, error) {
			req, err := ParseRequest(data)
			if err != nil {
				return nil, err
			}
			return Compose(*req, ComposeOptions{})
		}
		p1, err1 := compose()
		p2, err2 := compose()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("composing the same bytes twice: errors %v and %v", err1, err2)
		}
		if err1 == nil && p1.Key != p2.Key {
			t.Fatalf("composing the same bytes twice: keys %s and %s", p1.Key, p2.Key)
		}
	})
}
