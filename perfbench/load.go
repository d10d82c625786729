package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// recorder collects one phase's outcomes.
type recorder struct {
	mu        sync.Mutex
	lat       [numRoutes][]float64 // ms, successful requests only
	attempted int64
	failed    int64
	ok        int64
	torn      int64
	scanned   int64     // recipes the query executor visited, summed over replies
	rows      int64     // rows the queries answered
	late      []float64 // ms, open loop only
	notes     []string
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// classLatencies merges the latencies of every route in class c.
func (r *recorder) classLatencies(c class) []float64 {
	var out []float64
	for rt := route(0); rt < numRoutes; rt++ {
		if classOf(rt) == c {
			out = append(out, r.lat[rt]...)
		}
	}
	return out
}

// runner drives one server through a workload's operations. Operation
// i is the same for a seed in every run; each phase takes the next
// indexes in order.
type runner struct {
	base   string
	client *http.Client
	gen    *generator
	check  *checker
	locks  *slotLocks
	rec    atomic.Pointer[recorder]
	next   atomic.Int64
}

// maxConns is the generator's connection budget: one per core of the
// 2-vCPU host the benchmark is sized for.
const maxConns = 2

func newRunner(base string, gen *generator, check *checker) *runner {
	rn := &runner{
		base: base,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
		gen:   gen,
		check: check,
		locks: newSlotLocks(),
	}
	rn.rec.Store(&recorder{})
	return rn
}

func (rn *runner) close() { rn.client.CloseIdleConnections() }

// phase swaps in a fresh recorder and returns it.
func (rn *runner) phase() *recorder {
	r := &recorder{}
	rn.rec.Store(r)
	return r
}

// closedLoop runs clients that each send their next operation when the
// last one completes, until d has passed; it returns the time from the
// start until the last operation completed.
func (rn *runner) closedLoop(d time.Duration, clients int) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				rn.exec(int(rn.next.Add(1)-1), time.Now())
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop sends int(rate*d) operations on a fixed schedule, the j-th
// due at start + j/rate, over at most clients connections. Each
// operation's first request is timed from its due time, so a stall
// charges the wait it imposes on every later operation; how late the
// generator itself started each operation is recorded too.
func (rn *runner) openLoop(rate float64, d time.Duration, clients int) {
	n := int(rate * d.Seconds())
	base := int(rn.next.Add(int64(n))) - n
	rec := rn.rec.Load()
	late := make([]float64, n)
	openSchedule(rate, n, clients, func(j int, due time.Time) {
		late[j] = ms(time.Since(due))
		rn.exec(base+j, due)
	})
	rec.mu.Lock()
	rec.late = append(rec.late, late...)
	rec.mu.Unlock()
}

// openSchedule calls exec(j, due) for j in [0, n), the j-th call due at
// start + j/rate, from clients goroutines that never start a call
// before it is due.
func openSchedule(rate float64, n, clients int, exec func(j int, due time.Time)) {
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				due := start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				exec(j, due)
			}
		}()
	}
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// call is one HTTP request of an operation.
type call struct {
	route      route
	method     string
	path       string
	body       any
	minVersion uint64
}

// reply is a completed request. err is set for transport errors and
// non-2xx statuses.
type reply struct {
	status  int
	body    []byte
	version uint64 // X-Corpus-Version
	lat     time.Duration
	err     error
}

// send issues c and times it from from.
func (rn *runner) send(c call, from time.Time) reply {
	var body io.Reader
	if c.body != nil {
		raw, err := json.Marshal(c.body)
		if err != nil {
			return reply{err: err}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(c.method, rn.base+c.path, body)
	if err != nil {
		return reply{err: err}
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.minVersion > 0 {
		req.Header.Set("X-Min-Version", strconv.FormatUint(c.minVersion, 10))
	}
	resp, err := rn.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{status: resp.StatusCode, body: raw, lat: time.Since(from), err: err}
	rep.version, _ = strconv.ParseUint(resp.Header.Get("X-Corpus-Version"), 10, 64)
	if rep.err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		rep.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return rep
}

// finish records a request's outcome and reports whether it succeeded:
// a 2xx whose body passed checkErr == nil.
func (rn *runner) finish(c call, rep reply, checkErr error) bool {
	rec := rn.rec.Load()
	err := rep.err
	if err == nil {
		err = checkErr
	}
	rec.mu.Lock()
	rec.attempted++
	rec.mu.Unlock()
	if err != nil {
		rec.fail("%s %s: %v", c.method, c.path, err)
		return false
	}
	rec.mu.Lock()
	rec.ok++
	rec.lat[c.route] = append(rec.lat[c.route], ms(rep.lat))
	rec.mu.Unlock()
	return true
}

// roundTrip sends c, checks the reply with check, and records it.
func (rn *runner) roundTrip(c call, from time.Time, check func(reply) error) (reply, bool) {
	rep := rn.send(c, from)
	var err error
	if rep.err == nil {
		err = check(rep)
	}
	return rep, rn.finish(c, rep, err)
}

// exec performs operation i, its first request timed from due.
func (rn *runner) exec(i int, due time.Time) {
	o := rn.gen.op(i)
	if slots := o.slots(); len(slots) > 0 {
		// Two operations never write one slot at once, so every
		// read-your-writes probe has exactly one expected answer.
		rn.locks.lock(slots)
		defer rn.locks.unlock(slots)
	}
	switch o.Kind {
	case opUpsert:
		rn.upsert(o, due)
	case opCreateDelete:
		rn.createDelete(o, due)
	case opBatch:
		rn.batch(o, due)
	default:
		c := readCall(o)
		rn.roundTrip(c, due, func(rep reply) error { return rn.check.read(o, rep, rn.rec.Load()) })
	}
}

// readCall builds the request of a read operation.
func readCall(o op) call {
	switch o.Kind {
	case opRecipeGet:
		return call{route: rRecipeGet, method: "GET", path: fmt.Sprintf("/api/recipes/%d", o.ID)}
	case opRecipesPage:
		return call{route: rRecipesPage, method: "GET",
			path: fmt.Sprintf("/api/recipes?region=%s&limit=%d&offset=%d", o.Region.Code(), pageLimit, o.Offset)}
	case opIngredientPairings:
		return call{route: rIngredientPairings, method: "GET",
			path: "/api/ingredients/" + url.PathEscape(o.Text) + "/pairings?limit=10"}
	case opComplete:
		return call{route: rComplete, method: "POST", path: "/api/complete",
			body: map[string]any{"region": o.Region.Code(), "ingredients": o.Ings, "k": 5}}
	case opClassify:
		return call{route: rClassify, method: "POST", path: "/api/classify",
			body: map[string]any{"ingredients": o.Ings}}
	case opSearch:
		q := url.Values{"q": {o.Text}, "limit": {"10"}}
		if o.Mode != "" {
			q.Set("mode", o.Mode)
		}
		if o.Fuzzy {
			q.Set("fuzzy", "1")
		}
		return call{route: rSearch, method: "GET", path: "/api/search?" + q.Encode()}
	case opQuery:
		return call{route: rQuery, method: "POST", path: "/api/query", body: map[string]string{"q": o.Text}}
	case opRegions:
		return call{route: rRegions, method: "GET", path: "/api/regions"}
	case opRegion:
		return call{route: rRegion, method: "GET", path: "/api/regions/" + o.Region.Code()}
	case opPairing:
		path := "/api/regions/" + o.Region.Code() + "/pairing"
		if o.Model != pairingModels[0] {
			path += "?model=" + url.QueryEscape(o.Model.String())
		}
		return call{route: rPairing, method: "GET", path: path}
	}
	panic(fmt.Sprintf("readCall: %v is not a read", o.Kind))
}

// ack is a single-recipe mutation response.
type ack struct {
	ID      int    `json:"id"`
	Version uint64 `json:"version"`
}

func decodeAck(rep reply) (ack, error) {
	var a ack
	if err := json.Unmarshal(rep.body, &a); err != nil {
		return a, fmt.Errorf("ack: %v", err)
	}
	if a.Version == 0 || rep.version != a.Version {
		return a, fmt.Errorf("ack version %d, header %d", a.Version, rep.version)
	}
	return a, nil
}

func (rn *runner) upsert(o op, due time.Time) {
	w := o.Writes[0]
	c := call{route: rUpsert, method: "POST", path: "/api/recipes", body: w}
	var a ack
	_, ok := rn.roundTrip(c, due, func(rep reply) (err error) {
		if a, err = decodeAck(rep); err != nil {
			return err
		}
		if a.ID != *w.ID || rep.status != http.StatusOK {
			return fmt.Errorf("upsert of slot %d answered %d for slot %d", *w.ID, rep.status, a.ID)
		}
		return nil
	})
	if ok && rn.readBack(a.ID, w, a.Version) {
		rn.probe(o.Token, []int{a.ID}, true, a.Version)
	}
}

func (rn *runner) createDelete(o op, due time.Time) {
	w := o.Writes[0]
	c := call{route: rUpsert, method: "POST", path: "/api/recipes", body: w}
	var a ack
	_, ok := rn.roundTrip(c, due, func(rep reply) (err error) {
		if a, err = decodeAck(rep); err != nil {
			return err
		}
		if rep.status != http.StatusCreated {
			return fmt.Errorf("create answered %d", rep.status)
		}
		return nil
	})
	if !ok || !rn.readBack(a.ID, w, a.Version) || !rn.probe(o.Token, []int{a.ID}, true, a.Version) {
		return
	}
	d := call{route: rDelete, method: "DELETE", path: fmt.Sprintf("/api/recipes/%d", a.ID)}
	var del ack
	if _, ok := rn.roundTrip(d, time.Now(), func(rep reply) (err error) {
		if del, err = decodeAck(rep); err != nil {
			return err
		}
		if del.ID != a.ID || del.Version <= a.Version {
			return fmt.Errorf("delete of %d acked %d at version %d", a.ID, del.ID, del.Version)
		}
		return nil
	}); ok {
		rn.probe(o.Token, []int{a.ID}, false, del.Version)
	}
}

func (rn *runner) batch(o op, due time.Time) {
	c := call{route: rBatch, method: "POST", path: "/api/recipes/batch", body: map[string]any{"recipes": o.Writes}}
	var version uint64
	_, ok := rn.roundTrip(c, due, func(rep reply) error {
		var resp struct {
			Version uint64 `json:"version"`
			Applied int    `json:"applied"`
			Results []struct {
				Status string `json:"status"`
				ID     *int   `json:"id"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			return fmt.Errorf("batch: %v", err)
		}
		if len(resp.Results) != len(o.Writes) || resp.Applied != len(o.Writes) {
			return fmt.Errorf("batch of %d: %d results, %d applied", len(o.Writes), len(resp.Results), resp.Applied)
		}
		for k, res := range resp.Results {
			if res.Status != "replaced" || res.ID == nil || *res.ID != *o.Writes[k].ID {
				return fmt.Errorf("batch item %d (slot %d): %s", k, *o.Writes[k].ID, res.Status)
			}
		}
		if resp.Version == 0 || rep.version != resp.Version {
			return fmt.Errorf("batch version %d, header %d", resp.Version, rep.version)
		}
		version = resp.Version
		return nil
	})
	last := o.Writes[len(o.Writes)-1]
	if ok && rn.readBack(*last.ID, last, version) {
		rn.probe(o.Token, o.slots(), true, version)
	}
}

// readBack reads recipe id at the write's version and checks that it
// is the recipe written.
func (rn *runner) readBack(id int, want recipeReq, version uint64) bool {
	c := call{route: rRecipeGet, method: "GET", path: fmt.Sprintf("/api/recipes/%d", id), minVersion: version}
	_, ok := rn.roundTrip(c, time.Now(), func(rep reply) error {
		var got struct {
			Recipe recipeJSON `json:"recipe"`
		}
		if err := json.Unmarshal(rep.body, &got); err != nil {
			return err
		}
		return sameRecipe(got.Recipe, id, want)
	})
	return ok
}

// probe searches for token at the write's version: every id must be
// among the hits when present is set, and none of them otherwise.
func (rn *runner) probe(token string, ids []int, present bool, version uint64) bool {
	c := call{route: rSearch, method: "GET", path: "/api/search?q=" + token + "&limit=100", minVersion: version}
	_, ok := rn.roundTrip(c, time.Now(), func(rep reply) error {
		hits, err := rn.check.searchHits(rep, rn.rec.Load())
		if err != nil {
			return err
		}
		found := map[int]bool{}
		for _, h := range hits {
			found[h.ID] = true
		}
		for _, id := range ids {
			if found[id] != present {
				return fmt.Errorf("read-your-writes: recipe %d present=%v in search for %q at version %d", id, found[id], token, version)
			}
		}
		return nil
	})
	return ok
}

// recipeJSON is the wire form of one recipe.
type recipeJSON struct {
	ID          int      `json:"id"`
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

func sameRecipe(got recipeJSON, id int, want recipeReq) error {
	a := append([]string(nil), got.Ingredients...)
	b := append([]string(nil), want.Ingredients...)
	sort.Strings(a)
	sort.Strings(b)
	if got.ID != id || got.Name != want.Name || got.Region != want.Region || got.Source != want.Source ||
		fmt.Sprint(a) != fmt.Sprint(b) {
		return fmt.Errorf("recipe %d reads %+v, wrote %+v", id, got, want)
	}
	return nil
}

// slotLocks serializes operations that write the same recipe slot.
type slotLocks struct {
	mu   sync.Mutex
	cond *sync.Cond
	held map[int]bool
}

func newSlotLocks() *slotLocks {
	l := &slotLocks{held: map[int]bool{}}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *slotLocks) lock(ids []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.anyHeld(ids) {
		l.cond.Wait()
	}
	for _, id := range ids {
		l.held[id] = true
	}
}

func (l *slotLocks) anyHeld(ids []int) bool {
	for _, id := range ids {
		if l.held[id] {
			return true
		}
	}
	return false
}

func (l *slotLocks) unlock(ids []int) {
	l.mu.Lock()
	for _, id := range ids {
		delete(l.held, id)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}
