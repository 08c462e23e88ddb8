package tracesim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzTraceSpec decodes arbitrary bytes as a trace spec, the body of
// POST /v1/traces, and checks the normalization contract: no input
// panics, and a spec that normalizes is a fixed point. Normalizing it
// again, directly or after the JSON round trip of its Key (the form a
// fleet peer receives), succeeds with the same Key, so the trace's
// content identity cannot drift.
func FuzzTraceSpec(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden_*.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("golden traces: %v %v", goldens, err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		var doc struct {
			Spec json.RawMessage `json:"spec"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			f.Fatal(err)
		}
		// Compact seeds keep the minimization of each new input short.
		var seed bytes.Buffer
		if err := json.Compact(&seed, doc.Spec); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	// The CI smoke trace.
	f.Add([]byte(`{"machine":"juqueen","policy":"contention-aware","backfill":true,` +
		`"synthetic":{"jobs":24,"rate_hz":0.2,"mean_runtime_sec":60,"pattern":"pairing","pattern_fraction":0.5}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		key := norm.Key()
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %s fails to normalize again: %v", key, err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("Normalize is not idempotent:\nfirst  %s\nsecond %s", key, got)
		}
		var decoded Spec
		if err := json.Unmarshal([]byte(key), &decoded); err != nil {
			t.Fatalf("key %s does not decode: %v", key, err)
		}
		if decoded, err = decoded.Normalize(); err != nil {
			t.Fatalf("decoded key %s fails to normalize: %v", key, err)
		}
		if got := decoded.Key(); got != key {
			t.Fatalf("key changes across its JSON round trip:\nfirst  %s\nsecond %s", key, got)
		}
	})
}
