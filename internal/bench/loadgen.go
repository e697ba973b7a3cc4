package bench

// The loadgen experiment: drive ghostdb-server's wire protocol with
// thousands of concurrent HTTP clients and measure what the admission
// layer does under pressure. Each client loops point lookups against
// the hospital dataset, honoring 429 Retry-After hints; the report
// separates throttling (expected under saturation) from drops (never
// acceptable); latency quantiles are exact order statistics over every
// successful request.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/server"
)

// ServerReport is the machine-readable result of one loadgen run,
// embedded in BENCH_server.json.
type ServerReport struct {
	Clients     int     `json:"clients"`    // concurrent client goroutines
	PerClient   int     `json:"per_client"` // requests each client completes
	Requests    int64   `json:"requests"`   // successful requests (2xx)
	Rejected    int64   `json:"rejected"`   // 429 responses (retried until success)
	Dropped     int64   `json:"dropped"`    // non-2xx, non-429 outcomes — must be 0
	RowsTotal   int64   `json:"rows_total"` // result rows delivered
	WallNS      int64   `json:"wall_ns"`    // whole-run wall clock
	P50NS       int64   `json:"p50_ns"`     // successful-request latency quantiles
	P95NS       int64   `json:"p95_ns"`
	P99NS       int64   `json:"p99_ns"`
	MaxNS       int64   `json:"max_ns"`
	QPS         float64 `json:"qps"`          // successful requests per wall second
	MaxInflight int     `json:"max_inflight"` // server admission bound (0 = external server, unknown)
}

// LoadGenURL drives an already-running ghostdb-server at base (e.g.
// "http://127.0.0.1:8080") that hosts the hospital dataset: clients
// goroutines each complete perClient point queries, retrying on 429.
func LoadGenURL(base string, clients, perClient int) (*ServerReport, error) {
	base = strings.TrimRight(base, "/")
	tr := &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     time.Minute,
	}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	// Learn the Doctor cardinality so lookups spread over real keys.
	docs, err := probeDoctorCount(client, base)
	if err != nil {
		return nil, err
	}

	var (
		rejected, dropped, rows atomic.Int64
		wg                      sync.WaitGroup
		// lat[c] holds client c's successful-request latencies; each
		// goroutine appends to its own slot only.
		lat = make([][]int64, clients)

		errMu    sync.Mutex
		firstErr error
	)
	noteErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat[c] = make([]int64, 0, perClient)
			for i := 0; i < perClient; i++ {
				id := int64((c*perClient+i)%docs) + 1
				body, _ := json.Marshal(map[string]any{
					"sql":  "SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = ?",
					"args": []any{id},
				})
				for {
					t0 := time.Now()
					resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
					if err != nil {
						dropped.Add(1)
						noteErr(fmt.Errorf("query: %w", err))
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						rejected.Add(1)
						backoff := retryAfterOf(resp)
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						time.Sleep(backoff)
						continue
					}
					var qr struct {
						Rows [][]any `json:"rows"`
					}
					decErr := json.NewDecoder(resp.Body).Decode(&qr)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || decErr != nil {
						dropped.Add(1)
						noteErr(fmt.Errorf("query: status %d (decode: %v)", resp.StatusCode, decErr))
						break
					}
					lat[c] = append(lat[c], time.Since(t0).Nanoseconds())
					rows.Add(int64(len(qr.Rows)))
					break
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	all := slices.Concat(lat...)
	slices.Sort(all)
	rep := &ServerReport{
		Clients:   clients,
		PerClient: perClient,
		Requests:  int64(len(all)),
		Rejected:  rejected.Load(),
		Dropped:   dropped.Load(),
		RowsTotal: rows.Load(),
		WallNS:    wall.Nanoseconds(),
		P50NS:     orderStat(all, 0.50),
		P95NS:     orderStat(all, 0.95),
		P99NS:     orderStat(all, 0.99),
		MaxNS:     orderStat(all, 1),
		QPS:       float64(len(all)) / wall.Seconds(),
	}
	if rep.Dropped > 0 {
		errMu.Lock()
		err := firstErr
		errMu.Unlock()
		return rep, fmt.Errorf("loadgen dropped %d requests (first: %v)", rep.Dropped, err)
	}
	return rep, nil
}

// orderStat returns the q-quantile of sorted by the nearest-rank rule:
// the smallest sample with at least q of the samples at or below it (so
// q = 1 is the maximum); 0 when there are no samples.
func orderStat(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// LoadGenLocal builds the hospital database at cfg's scale, serves it
// in-process over a real TCP listener, runs LoadGenURL against it and
// shuts the server down gracefully.
func LoadGenLocal(cfg Config, clients, perClient, maxInflight int) (*ServerReport, error) {
	db, _, err := BuildDB(cfg)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := db.EnsureBuilt(); err != nil {
		return nil, err
	}
	srv, err := server.New(db, server.Config{MaxInflight: maxInflight})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	rep, lerr := LoadGenURL("http://"+ln.Addr().String(), clients, perClient)

	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return rep, fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && err != http.ErrServerClosed {
		return rep, fmt.Errorf("serve: %w", err)
	}
	if rep != nil {
		rep.MaxInflight = maxInflight
	}
	return rep, lerr
}

// probeDoctorCount asks the server how many doctors the dataset holds.
func probeDoctorCount(client *http.Client, base string) (int, error) {
	body := []byte(`{"sql": "SELECT COUNT(*) FROM Doctor Doc"}`)
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("probe: status %d: %s", resp.StatusCode, msg)
	}
	var qr struct {
		Rows [][]json.Number `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		return 0, fmt.Errorf("probe: %v", err)
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		return 0, fmt.Errorf("probe: unexpected COUNT shape %v", qr.Rows)
	}
	n, err := qr.Rows[0][0].Int64()
	if err != nil || n < 1 {
		return 0, fmt.Errorf("probe: bad doctor count %v", qr.Rows[0][0])
	}
	return int(n), nil
}

// retryAfterOf parses a 429's Retry-After hint, capped for load-test
// pacing (the server's hint is sized for polite clients, not a
// benchmark trying to saturate it).
func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			d := time.Duration(sec) * time.Second
			if d > 50*time.Millisecond {
				d = 50 * time.Millisecond
			}
			return d
		}
	}
	return 5 * time.Millisecond
}

// FormatServerReport renders the loadgen table.
func FormatServerReport(r *ServerReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %s\n", "concurrent clients", fmtInt(int64(r.Clients)))
	fmt.Fprintf(&b, "%-28s %s\n", "requests completed", fmtInt(r.Requests))
	fmt.Fprintf(&b, "%-28s %s\n", "throttled (429, retried)", fmtInt(r.Rejected))
	fmt.Fprintf(&b, "%-28s %s\n", "dropped (non-429 failures)", fmtInt(r.Dropped))
	fmt.Fprintf(&b, "%-28s %s\n", "result rows", fmtInt(r.RowsTotal))
	fmt.Fprintf(&b, "%-28s %.0f req/s\n", "throughput", r.QPS)
	fmt.Fprintf(&b, "%-28s p50 %v   p95 %v   p99 %v   max %v\n", "latency",
		time.Duration(r.P50NS).Round(time.Microsecond),
		time.Duration(r.P95NS).Round(time.Microsecond),
		time.Duration(r.P99NS).Round(time.Microsecond),
		time.Duration(r.MaxNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "%-28s %v\n", "wall clock", time.Duration(r.WallNS).Round(time.Millisecond))
	return b.String()
}

func fmtInt(n int64) string {
	s := strconv.FormatInt(n, 10)
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}
