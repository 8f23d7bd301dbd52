package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"gnbody/internal/align"
	"gnbody/internal/core"
	"gnbody/internal/overlap"
	"gnbody/internal/serve"
)

// serve-openloop: the resident service behind a real HTTP listener. The
// kernel and discovery code are those of overlap-noisy, but here queueing,
// admission, request decoding and warm-world reuse sit on the blocking
// path. Phase A (closed, saturation) drains a backlog submitted at once;
// phase B (open loop) sends jobs on a seeded Poisson schedule at a fixed
// rate and times each from the instant it was due.
const (
	// serveRate is the fixed open-loop arrival rate, jobs per second: about
	// a third of what phase A measures on the reference machine (README).
	serveRate     = 20.0
	serveBacklog  = 60
	serveDrains   = 5
	servePayloads = 20 // distinct request bodies; 14 of class A, 6 of class B
	serveClients  = 2  // load-generating goroutines, one connection each
	serveJobLimit = 60 * time.Second
	// loadgenLead is how long before the first arrival the load generator
	// is started.
	loadgenLead = 300 * time.Millisecond
)

// serveClasses are the two spec classes; a warm world prefers the class it
// ran last, so the mix exercises batch preference.
var serveClasses = [2]serve.JobSpec{
	{K: 17, X: 15, MinScore: 100, Coverage: 6, ErrRate: 0.15, Mode: "bsp"},
	{K: 15, X: 20, MinScore: 80, Coverage: 6, ErrRate: 0.15, Mode: "bsp"},
}

// payload is one distinct job: its request body and the digest of the hit
// TSV the serial reference produces for it.
type payload struct {
	class int
	reads int
	body  []byte
	want  [32]byte
}

// servePayloadSet builds the distinct jobs of a seed: read sets of 12 to
// 48 noisy ~1.2 kb reads, each from its own genome, 70 % class A.
func servePayloadSet(seed int64, short bool) ([]payload, error) {
	n := servePayloads
	out := make([]payload, n)
	for i := range out {
		nReads := 12 + i*36/(n-1)
		medianLen := 1200
		if short {
			nReads, medianLen = 12+i%5, 700
		}
		class := 0
		if i%10 == 2 || i%10 == 5 || i%10 == 8 {
			class = 1
		}
		spec := serveClasses[class]
		sp := readSpec{Coverage: spec.Coverage, MedianLen: medianLen, Sigma: 0.25, ErrRate: spec.ErrRate}
		sp.GenomeLen = int(float64(nReads*medianLen) * 1.03 / sp.Coverage)
		_, reads := sampleReads(seed*1000+int64(i), sp)
		rq := serve.JobRequest{JobSpec: spec, Reads: make([]serve.ReadJSON, reads.Len())}
		for k := range reads.Reads {
			rq.Reads[k] = serve.ReadJSON{Name: reads.Reads[k].Name, Seq: reads.Reads[k].Seq.String()}
		}
		body, err := json.Marshal(rq)
		if err != nil {
			return nil, err
		}
		tasks, _, _, err := overlap.FromReadSet(reads, overlap.Config{
			K: spec.K, Coverage: spec.Coverage, ErrRate: spec.ErrRate, Lo: spec.LoFreq, Hi: spec.HiFreq})
		if err != nil {
			return nil, err
		}
		hits, err := core.SerialHits(reads, tasks, align.DefaultScoring(), spec.X, spec.MinScore)
		if err != nil {
			return nil, err
		}
		var tsv bytes.Buffer
		for _, h := range hits {
			fmt.Fprintf(&tsv, "%s\t%s\t%d\n", reads.Get(h.A).Name, reads.Get(h.B).Name, h.Score)
		}
		out[i] = payload{class: class, reads: reads.Len(), body: body, want: sha256.Sum256(tsv.Bytes())}
	}
	return out, nil
}

// service is one running server: the pool, its HTTP front end on
// 127.0.0.1, and the benchmark's two client connections.
type service struct {
	srv     *serve.Server
	http    *http.Server
	url     string
	clients [serveClients]*http.Client
	served  chan error
}

func startService() (*service, error) {
	srv, err := serve.New(serve.Config{PoolConfig: serve.PoolConfig{
		Backend: "par", Worlds: 1, Ranks: ranks, MaxQueue: 256}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/jobs", served: make(chan error, 1)}
	for i := range s.clients {
		s.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener and connections and drains the pool, returning
// once the server goroutine and the resident world's workers have exited.
func (s *service) stop() {
	s.http.Close()
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.Drain()
}

// jobObs is what the load generator records about one job. Times are
// seconds from the phase start.
type jobObs struct {
	payload             int
	due, sent, accepted float64
	done                float64
	service             float64    // the job's collective region, slowest rank
	rank                float64    // the same, summed over ranks
	cat                 [4]float64 // align, overhead, comm, sync seconds over ranks
	swar, fallback      int64
	laneCells, slots    int64
	wire                int64
	err                 error
	job                 *serve.Job
}

// submit posts one job on client c and, once it is accepted, starts the
// waiter that stamps its completion.
func (s *service) submit(c int, p *payload, o *jobObs, t0 time.Time, wg *sync.WaitGroup) {
	o.sent = time.Since(t0).Seconds()
	resp, err := s.clients[c].Post(s.url, "application/json", bytes.NewReader(p.body))
	if err != nil {
		o.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.accepted = time.Since(t0).Seconds()
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("refused with status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	var st serve.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		o.err = err
		return
	}
	j, ok := s.srv.Job(st.ID)
	if !ok {
		o.err = fmt.Errorf("accepted job %q is unknown to the server", st.ID)
		return
	}
	o.job = j
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-j.Done():
			o.done = time.Since(t0).Seconds()
		case <-time.After(serveJobLimit):
			o.err = fmt.Errorf("job %s not done after %v", st.ID, serveJobLimit)
		}
	}()
}

// runJobs submits the picked payloads at once (a closed backlog), job i on
// client i mod serveClients, waits for all of them and verifies every
// output. It returns the observations.
func (s *service) runJobs(e *env, payloads []payload, pick []int) []jobObs {
	obs := make([]jobObs, len(pick))
	var waiters, senders sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		senders.Add(1)
		go func(c int) {
			defer senders.Done()
			for i := c; i < len(pick); i += serveClients {
				obs[i].payload = pick[i]
				s.submit(c, &payloads[pick[i]], &obs[i], t0, &waiters)
			}
		}(c)
	}
	senders.Wait()
	waiters.Wait()
	verifyJobs(e, obs, payloads)
	return obs
}

// verifyJobs counts every observed job as an operation and checks it.
func verifyJobs(e *env, obs []jobObs, payloads []payload) {
	for i := range obs {
		o := &obs[i]
		e.attempted++
		if o.err == nil {
			o.err = verifyJob(o, &payloads[o.payload])
		}
		if o.err != nil {
			e.fail("job %d (payload %d): %v", i, o.payload, o.err)
		}
	}
}

// openLoop sends pick[i] at due[i] seconds from start. The
// senders live in a child process (loadgen.go): inside this one, a sleeping
// sender would wait up to a scheduler quantum for one of the two processors
// the ranks keep busy, and run late. The child reports each submission as
// it is accepted; completion is stamped here, off the job's Done channel.
func (s *service) openLoop(e *env, payloads []payload, pick []int, due []float64, start time.Time) ([]jobObs, error) {
	sched := loadSchedule{URL: s.url, Clients: serveClients, Start: start.UnixNano()}
	for i := range payloads {
		path := fmt.Sprintf("%s/payload-%d.json", e.dir, i)
		if err := os.WriteFile(path, payloads[i].body, 0o644); err != nil {
			return nil, err
		}
		sched.Bodies = append(sched.Bodies, path)
	}
	for i := range pick {
		sched.Jobs = append(sched.Jobs, loadJob{Payload: pick[i], Due: due[i]})
	}
	obs := make([]jobObs, len(pick))
	since := func() float64 { return float64(time.Now().UnixNano()-sched.Start) / 1e9 }
	var waiters sync.WaitGroup
	err := runLoadgen(sched, func(r loadReport) {
		o := &obs[r.Job]
		o.payload, o.due = pick[r.Job], due[r.Job]
		o.sent, o.accepted = float64(r.Sent-sched.Start)/1e9, float64(r.Accepted-sched.Start)/1e9
		if r.Status != http.StatusAccepted {
			o.err = fmt.Errorf("refused with status %d: %s", r.Status, r.Error)
			return
		}
		j, ok := s.srv.Job(r.ID)
		if !ok {
			o.err = fmt.Errorf("accepted job %q is unknown to the server", r.ID)
			return
		}
		o.job = j
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			select {
			case <-j.Done():
				o.done = since()
			case <-time.After(serveJobLimit):
				o.err = fmt.Errorf("job %s not done after %v", r.ID, serveJobLimit)
			}
		}()
	})
	waiters.Wait()
	if err != nil {
		return nil, err
	}
	for i := range obs {
		if obs[i].job == nil && obs[i].err == nil {
			obs[i].err = fmt.Errorf("the load generator never reported this job")
		}
	}
	verifyJobs(e, obs, payloads)
	return obs, nil
}

// verifyJob checks a finished job's hit TSV against the reference digest
// and reads its service time and wire bytes off the job's metric rows.
func verifyJob(o *jobObs, p *payload) error {
	hits, done := o.job.Hits()
	if !done {
		st := o.job.Status()
		return fmt.Errorf("job ended %s: %s %s", st.State, st.ErrorKind, st.Error)
	}
	var tsv bytes.Buffer
	for _, h := range hits {
		fmt.Fprintf(&tsv, "%s\t%s\t%d\n", o.job.ReadName(h.A), o.job.ReadName(h.B), h.Score)
	}
	if got := sha256.Sum256(tsv.Bytes()); got != p.want {
		return fmt.Errorf("hit TSV digest %x differs from the serial reference %x", got[:6], p.want[:6])
	}
	for _, row := range o.job.Metrics() {
		o.service = max(o.service, row.ElapsedSec)
		o.rank += row.ElapsedSec
		for c, sec := range [4]float64{row.AlignSec, row.OverheadSec, row.CommSec, row.SyncSec} {
			o.cat[c] += sec
		}
		o.swar, o.fallback = o.swar+row.SWARTasks, o.fallback+row.FallbackTasks
		o.laneCells, o.slots = o.laneCells+row.LaneCells, o.slots+row.LaneSlots
		o.wire += row.IntraBytes + row.InterBytes
	}
	return nil
}

// cyclePicks deals the payloads out in seeded shuffled rounds, so every
// block of len(payloads) jobs holds each payload once and the amount of
// work per block does not depend on the seed.
func cyclePicks(seed int64, n, nPayloads int) []int {
	rng := stream(seed, 6)
	out := make([]int, 0, n+nPayloads)
	for len(out) < n {
		out = append(out, rng.Perm(nPayloads)...)
	}
	return out[:n]
}

func runServeOpenLoop(e *env) error {
	payloads, err := servePayloadSet(e.seed, e.short)
	if err != nil {
		return err
	}
	var nReads, bodyBytes int
	for _, p := range payloads {
		nReads += p.reads
		bodyBytes += len(p.body)
	}
	fmt.Fprintf(e.report, "  input: %d distinct jobs, %d reads, %d request bytes\n", len(payloads), nReads, bodyBytes)
	firstOf := [2]int{-1, -1} // the first payload of each spec class
	for i := len(payloads) - 1; i >= 0; i-- {
		firstOf[payloads[i].class] = i
	}

	if err := e.measureSetup(func() error {
		s, err := startService()
		if err != nil {
			return err
		}
		defer s.stop()
		s.runJobs(e, payloads, firstOf[:])
		return nil
	}); err != nil {
		return err
	}

	s, err := startService()
	if err != nil {
		return err
	}
	defer s.stop()
	backlog := serveBacklog
	nOpen := int(serveRate * e.seconds * 0.8)
	if e.short {
		backlog = 6
	}
	s.runJobs(e, payloads, cyclePicks(e.seed, backlog, len(payloads))) // warm-up drain

	ph := beginPhase()
	jobsBefore := e.attempted
	// Phase A: closed, saturation. In a traced run drains alternate between
	// recording spans and not.
	picks := cyclePicks(e.seed+1, serveDrains*backlog, len(payloads))
	var drains, tracedDrains []float64
	meter := newSpeedMeter()
	for d := 0; d < serveDrains; d++ {
		t0 := time.Now()
		obs := s.runJobs(e, payloads, picks[d*backlog:(d+1)*backlog])
		if e.trace && d%2 == 1 {
			recordJobSpans(e, obs, t0)
			tracedDrains = append(tracedDrains, time.Since(t0).Seconds()*meter.factor())
		} else {
			drains = append(drains, time.Since(t0).Seconds()*meter.factor())
		}
	}
	e.timing("wall_s", "s", drains)
	e.set("serve.sat_jobs_per_s", float64(backlog)/median(drains))
	fmt.Fprintf(e.report, "  serve.sat_jobs_per_s: %d jobs per drain over the median drain time = %.4g jobs/s\n",
		backlog, e.values["serve.sat_jobs_per_s"])

	// Phase B: open loop at the fixed rate. A calibration sample is load,
	// and one taken beside a running job measures the job, so the machine
	// is not sampled during the phase: the jobs' times are calibrated by
	// the median slowdown of the samples around the drains and the one
	// after the phase — enough to discount a slow stretch of minutes.
	due := poissonSchedule(e.seed, nOpen, serveRate)
	start := time.Now().Add(loadgenLead)
	obs, err := s.openLoop(e, payloads, cyclePicks(e.seed+2, nOpen, len(payloads)), due, start)
	if err != nil {
		return err
	}
	meter.factor()
	k := 1 / median(meter.slows)
	e.slowdowns = append(e.slowdowns, meter.slows...)
	ph.end(e, e.attempted-jobsBefore)
	if e.trace {
		recordJobSpans(e, obs, start)
		e.set("trace.overhead_frac", (median(tracedDrains)-median(drains))/median(drains))
	}

	var lat, late, wait, service, wire []float64
	for i := range obs {
		o := &obs[i]
		if o.err != nil {
			continue
		}
		lat = append(lat, (o.done-o.due)*k)
		late = append(late, (o.sent-o.due)*1e3)
		wait = append(wait, (o.done-o.accepted-o.service)*k)
		service = append(service, o.service*k)
		wire = append(wire, float64(o.wire))
	}
	if len(lat) == 0 {
		return fmt.Errorf("no open-loop job completed")
	}
	e.timing("job_p50_s", "s", lat)
	var wireSum float64
	for _, w := range wire {
		wireSum += w
	}
	e.set("wire_mb", wireSum/float64(len(wire))/1e6)
	tail := tailPercentile(len(lat))
	e.set("serve.job_p95_s", percentile(lat, min(tail, 95)))
	e.set("serve.queue_wait_p50_s", median(wait))
	e.set("serve.service_p50_s", median(service))
	e.set("loadgen.late_p95_ms", percentile(late, min(tail, 95)))
	st := s.srv.Pool().Stats()
	e.set("serve.retried", float64(st.Retried))
	var rejected int
	for i := range obs {
		if obs[i].err != nil && obs[i].job == nil {
			rejected++
		}
	}
	e.set("serve.rejected", float64(rejected))
	fmt.Fprintf(e.report, "  open loop: %d jobs at %.3g jobs/s (mean gap %.4g s), latency from due time p50 %.4g s, p%g %.4g s; generator lateness p%g %.4g ms\n",
		len(lat), serveRate, 1/serveRate, median(lat), min(tail, 95), e.values["serve.job_p95_s"], min(tail, 95), e.values["loadgen.late_p95_ms"])
	if e.trace {
		// What the job-scoped metric rows say about the layers underneath,
		// per open-loop job.
		var rank, swar, tasks, cells, slots float64
		var cat [4][]float64
		for i := range obs {
			o := &obs[i]
			if o.err != nil {
				continue
			}
			rank += o.rank * k
			for c := range cat {
				cat[c] = append(cat[c], o.cat[c]*k)
			}
			swar, tasks = swar+float64(o.swar), tasks+float64(o.swar+o.fallback)
			cells, slots = cells+float64(o.laneCells), slots+float64(o.slots)
		}
		e.set("core.rank_s", rank/float64(len(lat)))
		for c, name := range [4]string{"align.kernel_s", "core.overhead_s", "core.comm_s", "core.sync_s"} {
			e.timing(name, "s", cat[c])
		}
		if tasks > 0 && slots > 0 {
			e.set("align.swar_task_frac", swar/tasks)
			e.set("align.lane_occupancy", cells/slots)
		}
		if err := probeServe(e, payloads); err != nil {
			return err
		}
		return probeLayers(e)
	}
	return nil
}

// recordJobSpans writes one root span per job (due or sent to done) with
// the request and the service interval as children; what neither child
// covers is time spent queued.
func recordJobSpans(e *env, obs []jobObs, phaseStart time.Time) {
	base := int64(phaseStart.Sub(e.rec.t0))
	at := func(sec float64) int64 { return base + int64(sec*1e9) }
	for i := range obs {
		o := &obs[i]
		if o.err != nil {
			continue
		}
		op := e.attempted - len(obs) + i + 1
		root := e.rec.add(0, op, "job", -1, at(min(o.due, o.sent)), at(o.done))
		e.rec.add(root, op, "submit", -1, at(o.sent), at(o.accepted))
		e.rec.add(root, op, "service", -1, at(o.done-o.service), at(o.done))
	}
}
