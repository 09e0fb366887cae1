package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of the server's two metrics endpoints, taken
// from outside the program and read by exposition/JSON name.
type scrape struct {
	prom    map[string]float64 // /metrics series (name plus label set) → value
	service struct {           // /v1/metrics
		BlockCache struct {
			Hits       int64 `json:"hits"`
			Misses     int64 `json:"misses"`
			Bytes      int64 `json:"bytes"`
			BytesSaved int64 `json:"bytes_saved"`
			Evictions  int64 `json:"evictions"`
		} `json:"block_cache"`
	}
	promSeconds float64 // GET /metrics round trip
}

func takeScrape(ctx context.Context, hc *http.Client, base string) (*scrape, error) {
	sc := &scrape{prom: make(map[string]float64)}
	t0 := time.Now()
	code, _, raw, err := fetch(ctx, hc, http.MethodGet, base+"/metrics", nil)
	sc.promSeconds = time.Since(t0).Seconds()
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d %v", code, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			sc.prom[line[:cut]] = v
		}
	}
	code, _, raw, err = fetch(ctx, hc, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %d %v", code, err)
	}
	if err := json.Unmarshal(raw, &sc.service); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return sc, nil
}

// delta is after − before of one /metrics series.
func delta(before, after *scrape, series string) float64 {
	return after.prom[series] - before.prom[series]
}
