package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ramr/internal/mr"
)

// pollInterval is how often a client asks for a result: the job API has
// no blocking wait, so every submitter polls (bench/README.md, measured
// facts).
const pollInterval = 2 * time.Millisecond

// jobTimeout bounds one job from POST to result.
const jobTimeout = 60 * time.Second

// newHTTPClient returns a client that keeps at most conns connections
// to the daemon, so load never uses more connections than clients.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		},
	}
}

// resultDoc is the subset of the job documents the benchmark reads:
// service.resultDoc from ramrd and cluster.jobDoc from ramrc share these
// field names.
type resultDoc struct {
	ID         int            `json:"id"`
	State      string         `json:"state"`
	Error      string         `json:"error"`
	QueuedAt   string         `json:"queued_at"`
	Started    string         `json:"started"`
	Finished   string         `json:"finished"`
	WallMS     float64        `json:"wall_ms"`
	Pairs      int            `json:"pairs"`
	Digest     string         `json:"digest"`
	Cached     bool           `json:"cached"`
	ExecutedBy int            `json:"executed_by"`
	Coalesced  bool           `json:"coalesced"`
	Phases     *mr.PhaseTimes `json:"phases"`
	Queue      *mr.QueueStats `json:"queue"`
	// Coordinator documents only.
	MergeMS  float64 `json:"merge_ms"`
	PerShard []struct {
		Worker   string  `json:"worker"`
		JobID    int     `json:"job_id"`
		WallMS   float64 `json:"wall_ms"`
		Attempts int     `json:"attempts"`
	} `json:"per_shard"`
}

// outcome says whether the job produced the output a reference run
// would: the digest where the app has one, the pair count otherwise
// (KM's float output has no exact digest).
func (d *resultDoc) outcome() string {
	if d.Digest != "" {
		return d.Digest
	}
	return "pairs=" + strconv.Itoa(d.Pairs)
}

// httpJSON performs one exchange and decodes a JSON body into out when
// out is non-nil. It returns the status code and the body size.
func httpJSON(c *http.Client, method, url string, body []byte, out any) (code, size int, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, len(b), err
	}
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, len(b), fmt.Errorf("%s %s: decoding %d-byte body: %w", method, url, len(b), err)
		}
	}
	return resp.StatusCode, len(b), nil
}

// jobTimes are the client-side instants of one submitted job.
type jobTimes struct {
	postStart, postEnd time.Time
	polls              []wallSpan // every result GET, the last one returned 200
	held               time.Time  // result body fully read
	resultBytes        int
}

// wallSpan is a wall-clock interval.
type wallSpan struct{ start, end time.Time }

// submit POSTs body to base/jobs. The returned document is the submit
// response: the finished result for a memo hit (200), the admission
// record otherwise (201).
func submit(c *http.Client, base string, body []byte) (doc *resultDoc, code int, jt jobTimes, err error) {
	doc = &resultDoc{}
	jt.postStart = time.Now()
	code, size, err := httpJSON(c, http.MethodPost, base+"/jobs", body, doc)
	jt.postEnd = time.Now()
	if err != nil {
		return nil, code, jt, err
	}
	if code == http.StatusOK {
		jt.held, jt.resultBytes = jt.postEnd, size
	}
	return doc, code, jt, nil
}

// awaitResult polls GET base/jobs/{id}/result until it stops answering
// 202, recording every poll.
func awaitResult(c *http.Client, base string, id int, jt *jobTimes) (*resultDoc, error) {
	url := fmt.Sprintf("%s/jobs/%d/result", base, id)
	deadline := time.Now().Add(jobTimeout)
	for {
		doc := &resultDoc{}
		start := time.Now()
		code, size, err := httpJSON(c, http.MethodGet, url, nil, doc)
		end := time.Now()
		if err != nil {
			return nil, err
		}
		jt.polls = append(jt.polls, wallSpan{start, end})
		switch code {
		case http.StatusOK:
			jt.held, jt.resultBytes = end, size
			if doc.State != "done" {
				return doc, fmt.Errorf("job %d settled %s: %s", id, doc.State, doc.Error)
			}
			return doc, nil
		case http.StatusAccepted:
			if end.After(deadline) {
				return nil, fmt.Errorf("job %d still %s after %s", id, doc.State, jobTimeout)
			}
			time.Sleep(pollInterval)
		default:
			return nil, fmt.Errorf("GET %s: status %d: %s", url, code, doc.Error)
		}
	}
}

// serverSpan is one lifecycle span of a daemon's job trace, relative to
// the trace's epoch (the HTTP receive).
type serverSpan struct{ start, dur time.Duration }

// at places the span on the client's clock. The daemon's trace is
// relative to its HTTP receive, which follows the client's send (epoch)
// by a loopback hop.
func (s serverSpan) at(epoch time.Time) (start, end time.Time) {
	start = epoch.Add(s.start)
	return start, start.Add(s.dur)
}

// fetchTrace reads GET base/jobs/{id}/trace and returns the lifecycle
// lane's spans by name. The watcher finishes the trace shortly after
// the job's state flips, so the fetch retries until want appears.
func fetchTrace(c *http.Client, base string, id int, want string) (map[string]serverSpan, error) {
	url := fmt.Sprintf("%s/jobs/%d/trace", base, id)
	for attempt := 0; ; attempt++ {
		var events []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		}
		code, _, err := httpJSON(c, http.MethodGet, url, nil, &events)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", url, code)
		}
		spans := map[string]serverSpan{}
		for _, e := range events {
			if e.Ph == "X" && e.TID == 1 {
				spans[e.Name] = serverSpan{
					start: time.Duration(e.Ts * float64(time.Microsecond)),
					dur:   time.Duration(e.Dur * float64(time.Microsecond)),
				}
			}
		}
		if _, ok := spans[want]; ok || want == "" || attempt >= 50 {
			return spans, nil
		}
		time.Sleep(pollInterval)
	}
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	family string // metric name without labels
	value  float64
}

// scrapeMetrics reads base/metrics.
func scrapeMetrics(c *http.Client, base string) ([]promSample, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var out []promSample
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		family, _, _ := strings.Cut(line[:i], "{")
		out = append(out, promSample{family: family, value: v})
	}
	return out, sc.Err()
}

// promSum adds every series of a family.
func promSum(samples []promSample, family string) float64 {
	var sum float64
	for _, s := range samples {
		if s.family == family {
			sum += s.value
		}
	}
	return sum
}

// statsDoc is the subset of ramrd's GET /stats the benchmark reads.
type statsDoc struct {
	Scheduler struct {
		Accepted, Rejected, Finished int
	} `json:"scheduler"`
	Memo struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Evictions uint64 `json:"evictions"`
	} `json:"memo"`
}

func fetchStats(c *http.Client, base string) (*statsDoc, error) {
	var st statsDoc
	code, _, err := httpJSON(c, http.MethodGet, base+"/stats", nil, &st)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", code)
	}
	return &st, nil
}

// parseTime reads a daemon's RFC3339Nano timestamp; the zero time when
// absent or malformed.
func parseTime(s string) time.Time {
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return time.Time{}
	}
	return t
}
