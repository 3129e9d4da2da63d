package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// promSample maps a Prometheus series ("name" or "name{labels}") to its
// value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format: comment lines are
// skipped, every other line is "<series> <value>".
func parseProm(text string) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", line, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after-before for every series in after (a series missing
// from before counts from zero).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// stageMs is the busy time of one bsimd pipeline stage, in milliseconds.
func (d promSample) stageMs(stage string) float64 {
	return 1000 * d[fmt.Sprintf("bsimd_stage_seconds_sum{stage=%q}", stage)]
}

// cacheEvent is one artifact-cache counter (cache program|trace|predecode,
// event hit|miss|eviction).
func (d promSample) cacheEvent(cache, event string) float64 {
	return d[fmt.Sprintf("bsimd_artifact_cache_events_total{cache=%q,event=%q}", cache, event)]
}

// hitRatio is hits/(hits+misses) for one artifact cache (0 when unused).
func (d promSample) hitRatio(cache string) float64 {
	h, m := d.cacheEvent(cache, "hit"), d.cacheEvent(cache, "miss")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}
