package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/runpack"
	"repro/internal/serve"
)

// errRejected is a 429 from the admission queue. The closed loops never
// fill the queue, so a refusal is a failed operation.
var errRejected = errors.New("submission refused with 429")

// jobTimeout bounds how long a caller waits for one job, so a stuck job
// fails the run instead of hanging it.
const jobTimeout = 60 * time.Second

// client is one closed-loop load generator's view of the daemon: a
// stdlib net/http client whose transport holds at most conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer. The duration runs from
// the send to the last body byte.
func (c *client) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	start := now()
	req, ct := c.tr.withTiming(req, start)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := since(start)
	if err != nil {
		return 0, nil, 0, err
	}
	c.tr.request(d, ct)
	return resp.StatusCode, data, d, nil
}

// expect performs a request that must answer with code.
func (c *client) expect(code int, method, path string, body []byte) ([]byte, time.Duration, error) {
	got, data, d, err := c.do(method, path, body)
	if err != nil {
		return nil, d, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if got == http.StatusTooManyRequests {
		return nil, d, fmt.Errorf("%s %s: %w", method, path, errRejected)
	}
	if got != code {
		return nil, d, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, got, code, data)
	}
	return data, d, nil
}

func submitBody(name string, seed int64) []byte {
	body, _ := json.Marshal(serve.SubmitRequest{Name: name, Seed: &seed})
	return body
}

// jobRecord is one serve job as the client saw it.
type jobRecord struct {
	index    int
	name     string
	seed     int64
	id       string
	artifact string   // the artifact fetched: the first in name order
	sha      [32]byte // sha256 of the fetched artifact bytes
	polls    int

	start, posted, seen, end time.Time
	submittedS, doneS        float64 // server clock, from the status answers
}

func (j jobRecord) latency() time.Duration { return j.end.Sub(j.start) }

// runBatch submits fresh (name, seed) jobs back to back, numbered from
// first, then waits for them in submission order and fetches each one's
// first artifact as soon as it is done. A refusal (429), a failed job or
// any unexpected status code is an error.
func (c *client) runBatch(first int, names []string, seeds []int64) ([]jobRecord, error) {
	jobs := make([]jobRecord, len(names))
	for k := range jobs {
		j := &jobs[k]
		*j = jobRecord{index: first + k, name: names[k], seed: seeds[k], start: now()}
		data, _, err := c.expect(http.StatusAccepted, http.MethodPost, "/experiments", submitBody(j.name, j.seed))
		if err != nil {
			return nil, err
		}
		j.posted = now()
		var st serve.StatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("submit %s: %w", j.name, err)
		}
		j.id, j.submittedS = st.ID, st.SubmittedS
	}
	for k := range jobs {
		if err := c.await(&jobs[k]); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// await polls j's status, sleeping a millisecond between polls, until it
// is done, then fetches its first artifact.
func (c *client) await(j *jobRecord) error {
	for {
		data, _, err := c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id, nil)
		if err != nil {
			return err
		}
		j.polls++
		var st serve.StatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("status %s: %w", j.id, err)
		}
		switch {
		case st.State == serve.StateFailed:
			return fmt.Errorf("job %s (%s) failed: %s", j.id, j.name, st.Error)
		case st.State == serve.StateDone && len(st.Artifacts) == 0:
			return fmt.Errorf("job %s (%s) done without artifacts", j.id, j.name)
		case st.State == serve.StateDone:
			j.seen, j.doneS, j.artifact = now(), st.DoneS, st.Artifacts[0]
			data, _, err = c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id+"/artifacts/"+j.artifact, nil)
			j.end = now()
			j.sha = sha256.Sum256(data)
			return err
		case since(j.start) > jobTimeout:
			return fmt.Errorf("job %s (%s) not done after %v", j.id, j.name, jobTimeout)
		}
		clock.System.Sleep(time.Millisecond)
	}
}

// reference runs one experiment in-process on a storeless clock.Sim Env,
// the way the daemon runs it, and returns its artifacts.
func reference(reg *exp.Registry, name string, seed int64) (map[string]string, error) {
	res, err := reg.Run(context.Background(), &exp.Env{Seed: seed, Clock: clock.NewSim(seed)}, name)
	if err != nil {
		return nil, err
	}
	return res.Artifacts, nil
}

// verifyBundle decodes a served runpack bundle, verifies it offline with
// the daemon's public key, and checks that it seals the artifact bytes.
func verifyBundle(tr *tracer, data []byte, pub, artifact string, sha [32]byte) error {
	start := now()
	defer tr.time("runpack.verify", start)
	pack, err := runpack.DecodeBundle(data)
	if err != nil {
		return err
	}
	if err := pack.Verify(runpack.VerifyOpts{PubKey: pub}); err != nil {
		return err
	}
	for _, a := range pack.Manifest.Artifacts {
		if a.Name == artifact {
			if a.SHA256 != hex.EncodeToString(sha[:]) {
				return fmt.Errorf("runpack %s seals %s as %.12s, client fetched %x", pack.ID[:12], artifact, a.SHA256, sha[:6])
			}
			return nil
		}
	}
	return fmt.Errorf("runpack %s does not seal artifact %q", pack.ID[:12], artifact)
}

// servedJob is one job completed during set-up with the exact bytes every
// later read of it must return.
type servedJob struct {
	name, id  string
	status    []byte            // status (and re-submit) answer
	artifacts map[string][]byte // artifact name → bytes
	names     []string          // artifact names, sorted
	runpack   []byte            // runpack bundle
}

// primeJobs submits every name at seed, waits for the daemon to drain, and
// captures each job's status, artifact and runpack bytes. The captured
// bytes are checked before they become expectations: every artifact must
// equal an in-process run, and every runpack must verify offline.
func primeJobs(c *client, srv *serve.Server, ref *exp.Registry, seed int64) ([]servedJob, error) {
	names := ref.Names()
	for _, n := range names {
		if _, _, err := c.expect(http.StatusAccepted, http.MethodPost, "/experiments", submitBody(n, seed)); err != nil {
			return nil, err
		}
	}
	srv.Wait()
	jobs := make([]servedJob, 0, len(names))
	for _, n := range names {
		j := servedJob{name: n, id: serve.JobID(n, seed), artifacts: map[string][]byte{}}
		var err error
		if j.status, _, err = c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id, nil); err != nil {
			return nil, err
		}
		var st serve.StatusResponse
		if err := json.Unmarshal(j.status, &st); err != nil {
			return nil, err
		}
		if st.State != serve.StateDone || len(st.Artifacts) == 0 {
			return nil, fmt.Errorf("set-up job %s (%s) ended %q with %d artifacts: %s", j.id, n, st.State, len(st.Artifacts), st.Error)
		}
		want, err := reference(ref, n, seed)
		if err != nil {
			return nil, err
		}
		j.names = st.Artifacts
		for _, a := range j.names {
			data, _, err := c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id+"/artifacts/"+a, nil)
			if err != nil {
				return nil, err
			}
			if string(data) != want[a] {
				return nil, fmt.Errorf("set-up job %s (%s): served artifact %q differs from an in-process run", j.id, n, a)
			}
			j.artifacts[a] = data
		}
		if j.runpack, _, err = c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id+"/runpack", nil); err != nil {
			return nil, err
		}
		first := j.names[0]
		if err := verifyBundle(nil, j.runpack, srv.PackPublicKey(), first, sha256.Sum256(j.artifacts[first])); err != nil {
			return nil, fmt.Errorf("set-up job %s (%s): %w", j.id, n, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// checkSample re-checks every 64th job of a timed phase outside the timed
// window: its artifact must equal an in-process storeless run, and its
// runpack, fetched again, must verify and seal the bytes the client got.
func checkSample(r *runner, c *client, ref *exp.Registry, pub string) {
	for _, j := range r.sortedJobs() {
		if j.index%64 != 0 {
			continue
		}
		if err := checkJob(r.tr, c, ref, pub, j); err != nil {
			r.rec.fail(err)
		}
	}
}

func checkJob(tr *tracer, c *client, ref *exp.Registry, pub string, j jobRecord) error {
	want, err := reference(ref, j.name, j.seed)
	if err != nil {
		return err
	}
	if sha256.Sum256([]byte(want[j.artifact])) != j.sha {
		return fmt.Errorf("job %s (%s seed %d): fetched artifact %q differs from an in-process run", j.id, j.name, j.seed, j.artifact)
	}
	data, _, err := c.expect(http.StatusOK, http.MethodGet, "/experiments/"+j.id+"/runpack", nil)
	if err != nil {
		return err
	}
	if err := verifyBundle(tr, data, pub, j.artifact, j.sha); err != nil {
		return fmt.Errorf("job %s (%s): %w", j.id, j.name, err)
	}
	return nil
}
