package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xsim"
	"xsim/internal/jobstore"
	"xsim/internal/service"
)

// The served workload is a closed loop: serviceClients callers, each
// sending its next request only when the previous one has been answered,
// against serviceExecutors campaign executors — the two cores of the
// sandbox.
const (
	serviceClients   = 2
	serviceExecutors = 2
	pollInterval     = 2 * time.Millisecond
)

// serviceSpecs generates the cold phase's distinct campaigns: six kinds
// times seedsPerKind seeds, at 48 to 512 ranks.
func serviceSpecs(seed int64, quick bool) []*xsim.CampaignSpec {
	seedsPerKind, scale := 8, 1
	if quick {
		seedsPerKind, scale = 2, 4
	}
	wide := []int{64, 128, 256, 512}
	narrow := []int{64, 128}
	var specs []*xsim.CampaignSpec
	for i := 0; i < seedsPerKind; i++ {
		s := func(kind int) int64 { return subSeed(seed, 16+6*i+kind) }
		specs = append(specs,
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindTableI, Seed: s(0),
				TableI: &xsim.TableIParams{Victims: 40 / scale, MaxInjections: 100}},
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindTableII, Seed: s(1), Ranks: wide[i%4] / scale,
				TableII: &xsim.TableIIParams{Iterations: 200, Intervals: []int{100, 50}, MTTFSeconds: []float64{1200, 600}}},
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindIntervalSweep, Seed: s(2), Ranks: narrow[i%2] / scale,
				Sweep: &xsim.IntervalSweepParams{Iterations: 200, Intervals: []int{100, 50, 25}, MTTFSeconds: 600, Seeds: []int64{s(2), s(2) + 1}}},
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindFirstImpressions, Seed: s(3), Ranks: wide[i%4] / scale,
				Phases: &xsim.FirstImpressionsParams{Iterations: 200, Interval: 25, Trials: 4}},
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindCrossover, Seed: s(4), Ranks: 48,
				Crossover: &xsim.CrossoverParams{Degrees: []int{2, 3}, MTTFSeconds: []float64{200, 800}, Iterations: 20}},
			&xsim.CampaignSpec{Version: xsim.SpecVersion, Kind: xsim.KindIOAblation, Seed: s(5), Ranks: narrow[i%2] / scale,
				IOAblation: &xsim.IOAblationParams{Iterations: 100, Intervals: []int{50}, MTTFSeconds: []float64{600}, PayloadBytes: 64 << 20}},
		)
	}
	// Largest worlds first: the two clients then start on the two widest
	// campaigns together, so the peak footprint is that pair's on every
	// run and does not depend on which campaigns happen to overlap later.
	sort.SliceStable(specs, func(a, b int) bool { return specs[a].Ranks > specs[b].Ranks })
	return specs
}

// respell encodes spec the way a different client might: either with its
// top-level keys in a shuffled order, or with every default spelled out.
// Both canonicalise to the same cache key as the original.
func respell(spec *xsim.CampaignSpec, rng *rand.Rand) ([]byte, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if rng.Intn(2) == 0 {
		full, err := xsim.DecodeCampaignSpec(raw)
		if err != nil {
			return nil, err
		}
		full.Normalize()
		return json.Marshal(full)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	// Map iteration order is random; sort before the seeded shuffle so
	// the same seed spells the same document.
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%s", k, fields[k])
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

type serviceInstance struct {
	in    inputs
	specs []*xsim.CampaignSpec
	hits  int
	// served holds the last repetition's result bytes per spec, which
	// VerifyFinal compares with direct runs.
	served [][]byte
}

func newServiceMix(in inputs) (instance, error) {
	si := &serviceInstance{in: in, specs: serviceSpecs(in.Seed, in.Quick), hits: 4000}
	if in.Quick {
		si.hits = 400
	}
	return si, nil
}

// tracedStore records a span around every result-store access.
type tracedStore struct {
	jobstore.Store
	tr *Tracer
}

func (s tracedStore) Get(key string) ([]byte, bool, error) {
	id := s.tr.Start("jobstore.Get", -1)
	defer s.tr.End(id)
	return s.Store.Get(key)
}

func (s tracedStore) Put(key string, data []byte) error {
	id := s.tr.Start("jobstore.Put", -1)
	defer s.tr.End(id)
	return s.Store.Put(key, data)
}

// serviceClient is one closed-loop caller.
type serviceClient struct {
	base string
	http *http.Client
	tr   *Tracer
}

// roundTrip submits one encoded spec and fetches its result: POST, poll
// the job until it completes, GET the result bytes. The returned latency
// runs from the submit to the last result byte.
func (c *serviceClient) roundTrip(parent int, body []byte) (result []byte, status service.JobStatus, latency time.Duration, err error) {
	start := time.Now()
	s := c.tr.Start("http.submit", parent)
	code, data, err := c.do(http.MethodPost, "/v1/campaigns", body)
	c.tr.End(s)
	if err != nil {
		return nil, status, 0, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, status, 0, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &status); err != nil {
		return nil, status, 0, fmt.Errorf("submit: %w", err)
	}
	if status.State != service.StateCompleted {
		s = c.tr.Start("http.poll", parent)
		for status.State == service.StateQueued || status.State == service.StateRunning {
			time.Sleep(pollInterval)
			code, data, err = c.do(http.MethodGet, "/v1/campaigns/"+status.ID, nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("poll: HTTP %d", code)
			}
			if err == nil {
				err = json.Unmarshal(data, &status)
			}
			if err != nil {
				c.tr.End(s)
				return nil, status, 0, err
			}
		}
		c.tr.End(s)
		if status.State != service.StateCompleted {
			return nil, status, 0, fmt.Errorf("campaign %s ended %s: %s", status.ID, status.State, status.Error)
		}
	}
	s = c.tr.Start("http.result", parent)
	code, data, err = c.do(http.MethodGet, "/v1/campaigns/"+status.ID+"/result", nil)
	c.tr.End(s)
	if err != nil {
		return nil, status, 0, err
	}
	if code != http.StatusOK {
		return nil, status, 0, fmt.Errorf("result: HTTP %d", code)
	}
	return data, status, time.Since(start), nil
}

func (c *serviceClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serviceOutcome is the canonical outcome of the served workload: the
// cache key and result hash of every distinct campaign, in spec order.
type serviceOutcome struct {
	Results []servedResult `json:"results"`
}

type servedResult struct {
	Kind   xsim.CampaignKind `json:"kind"`
	Key    string            `json:"key"`
	SHA256 string            `json:"sha256"`
}

func (si *serviceInstance) Rep(tr *Tracer) (*repResult, error) {
	dir, err := os.MkdirTemp(si.in.Scratch, "store-")
	if err != nil {
		return nil, fmt.Errorf("bench: service-mix: %w", err)
	}
	defer os.RemoveAll(dir)
	var store jobstore.Store
	if store, err = jobstore.NewDir(dir); err != nil {
		return nil, err
	}
	if tr != nil {
		store = tracedStore{store, tr}
	}
	svc := service.New(service.Config{Workers: serviceExecutors, Store: store})
	srv := httptest.NewServer(svc.Handler())
	transport := &http.Transport{MaxIdleConnsPerHost: serviceClients, MaxConnsPerHost: serviceClients}
	defer func() {
		transport.CloseIdleConnections()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx) // nothing is queued or running by now; Drain only stops the executors
	}()
	httpClient := &http.Client{Transport: transport}

	res := &repResult{}
	var mu sync.Mutex // guards res and the latency slices
	// phase runs n operations over the closed loop's clients; op(i) is
	// the i-th operation, handed out in order.
	phase := func(name string, n int, op func(c *serviceClient, parent, client, i int) error) time.Duration {
		root := tr.Start("phase "+name, -1)
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for client := 0; client < serviceClients; client++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				c := &serviceClient{base: srv.URL, http: httpClient, tr: tr}
				lane := tr.Start(fmt.Sprintf("client %d", client), root)
				defer tr.End(lane)
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					err := op(c, lane, client, i)
					mu.Lock()
					res.Attempted++
					if err != nil {
						res.fail("service-mix %s op %d: %v", name, i, err)
					}
					mu.Unlock()
				}
			}(client)
		}
		wg.Wait()
		tr.End(root)
		return time.Since(start)
	}

	// Cold: every distinct spec once, submit → poll → result.
	served := make([][]byte, len(si.specs))
	keys := make([]string, len(si.specs))
	coldMS := make([]float64, 0, len(si.specs))
	coldWall := phase("cold", len(si.specs), func(c *serviceClient, parent, _, i int) error {
		enc := tr.Start("wire.encode", parent)
		body, err := json.Marshal(si.specs[i])
		tr.End(enc)
		if err != nil {
			return err
		}
		data, status, lat, err := c.roundTrip(parent, body)
		if err != nil {
			return err
		}
		if status.Cached {
			return fmt.Errorf("first submission of %s was answered from the cache", status.Key)
		}
		mu.Lock()
		served[i], keys[i] = data, status.Key
		coldMS = append(coldMS, float64(lat.Nanoseconds())/1e6)
		mu.Unlock()
		return nil
	})

	// Hit: resubmissions of the same campaigns, respelled. The request
	// order is fixed by the seed; which client sends which is not.
	order := rand.New(rand.NewSource(subSeed(si.in.Seed, 3)))
	picks := make([]int, si.hits)
	for i := range picks {
		picks[i] = order.Intn(len(si.specs))
	}
	rngs := make([]*rand.Rand, serviceClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(subSeed(si.in.Seed, 4+c)))
	}
	hitMS := make([]float64, 0, si.hits)
	hitWall := phase("hit", si.hits, func(c *serviceClient, parent, client, i int) error {
		spec := picks[i]
		enc := tr.Start("wire.encode", parent)
		body, err := respell(si.specs[spec], rngs[client])
		tr.End(enc)
		if err != nil {
			return err
		}
		data, status, lat, err := c.roundTrip(parent, body)
		if err != nil {
			return err
		}
		if !status.Cached || status.Key != keys[spec] {
			return fmt.Errorf("resubmission of spec %d: cached=%v key=%.12s, want a hit on %.12s", spec, status.Cached, status.Key, keys[spec])
		}
		if !bytes.Equal(data, served[spec]) {
			return fmt.Errorf("resubmission of spec %d served different bytes", spec)
		}
		mu.Lock()
		hitMS = append(hitMS, float64(lat.Nanoseconds())/1e6)
		mu.Unlock()
		return nil
	})

	verify := tr.Start("bench.verify", -1)
	m := svc.Metrics()
	res.check(m.SimRuns == len(si.specs), "service-mix: %d simulations for %d distinct specs", m.SimRuns, len(si.specs))
	res.check(m.CacheHits == si.hits, "service-mix: %d cache hits for %d resubmissions", m.CacheHits, si.hits)
	res.check(m.Failed == 0 && m.Cancelled == 0, "service-mix: %d failed and %d cancelled campaigns", m.Failed, m.Cancelled)
	out := serviceOutcome{}
	for i, data := range served {
		sum := sha256.Sum256(data)
		out.Results = append(out.Results, servedResult{Kind: si.specs[i].Kind, Key: keys[i], SHA256: hex.EncodeToString(sum[:])})
	}
	res.Outcome = out
	si.served = served
	tr.End(verify)

	cold, hit := summarizeLatency(coldMS), summarizeLatency(hitMS)
	res.Extra = map[string]float64{
		"cold_campaigns_per_s": float64(len(si.specs)) / coldWall.Seconds(),
		"cold_p50_ms":          cold.P50,
		"hit_p50_ms":           hit.P50,
		"hit_p99_ms":           hit.Top, // p99 at the full scale's 4,000 samples
		"hits_per_s":           float64(si.hits) / hitWall.Seconds(),
	}
	res.Counts.CacheHits, res.Counts.SimRuns, res.Counts.DedupJoins = m.CacheHits, m.SimRuns, m.DedupJoins
	return res, nil
}

// VerifyFinal runs every distinct spec directly through
// CampaignSpec.RunWith and compares the canonical outcome with the bytes
// the service served in the last repetition. It is as much simulation as
// a cold phase, so it runs once, after the timed region.
func (si *serviceInstance) VerifyFinal(tr *Tracer) (attempted, failed int, notes []string) {
	root := tr.Start("bench.verify direct runs", -1)
	defer tr.End(root)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceExecutors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(si.specs) {
					return
				}
				err := si.compareDirect(i)
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					notes = append(notes, fmt.Sprintf("service-mix spec %d (%s): %v", i, si.specs[i].Kind, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return attempted, failed, notes
}

func (si *serviceInstance) compareDirect(i int) error {
	if i >= len(si.served) || si.served[i] == nil {
		return fmt.Errorf("no served result to compare")
	}
	out, err := si.specs[i].RunWith(context.Background(), xsim.RunOptions{})
	if err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	want, err := out.Canonical()
	if err != nil {
		return err
	}
	// The result endpoint appends a newline, as xsim-run -campaign does.
	if !bytes.Equal(si.served[i], append(want, '\n')) {
		return fmt.Errorf("served bytes differ from CampaignSpec.RunWith")
	}
	return nil
}
