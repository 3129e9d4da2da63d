package svc

import (
	"bytes"
	"encoding/json"
	"testing"
)

// readmeBodies are the request bodies of the README's curl examples.
var readmeBodies = []string{
	`{"version": 2, "program": {"workload": "compress", "scale": 0.1, "isa": "bsa"},
	  "sweep": {"icache_sizes": [0, 8192, 16384, 32768, 65536]}}`,
	`{"version": 2, "program": {"workload": "compress", "scale": 0.1, "isa": "bsa"},
	  "sweep": {"history_bits": [2, 4, 8, 12], "pht_entries": [1024, 4096]}}`,
	`{"version": 2, "program": {"workload": "compress", "scale": 0.1, "isa": "bsa"},
	  "sweep": {"icache_sizes": [4096, 8192, 16384, 32768], "history_bits": [4, 8, 12, 16]}}`,
	`{"version": 2,
	  "program": {"source": "func main() { var i = 0; while (i < 100000) { i = i + 1; } out(i); }", "isa": "conv"},
	  "config": {"icache": {"size_bytes": 16384}}, "timeout_ms": 10000}`,
	`{"version": 2, "program": {"workload": "compress", "scale": 0.1, "isa": "bsa"},
	  "config": {"icache": {"size_bytes": 16384}}, "segments": 4}`,
}

// FuzzRequest feeds arbitrary bytes through DecodeRequest and BuildConfig,
// the path every request body takes before a job is queued. Neither may
// panic; every rejection must classify as a client error (a non-empty
// error code other than "internal"); and every accepted plan must hold
// between 1 and maxSweepPoints configurations, each of which validates.
func FuzzRequest(f *testing.F) {
	for _, body := range readmeBodies {
		f.Add([]byte(body))
	}
	for _, tc := range decodeCases {
		f.Add([]byte(tc.body))
	}
	for _, tc := range buildConfigCases {
		blob, err := json.Marshal(seedReq(tc.mutate))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRequest(bytes.NewReader(body))
		var plan *Plan
		if err == nil {
			plan, err = BuildConfig(req)
		}
		if err != nil {
			if code := ErrorCode(err); code == "" || code == "internal" {
				t.Fatalf("error %q classified as %q", err, code)
			}
			return
		}
		if n := len(plan.Configs); n < 1 || n > maxSweepPoints {
			t.Fatalf("plan has %d configs, want 1..%d", n, maxSweepPoints)
		}
		for i, cfg := range plan.Configs {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("config %d of an accepted plan fails Validate: %v", i, err)
			}
		}
	})
}
