package cas_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/workflow"
)

var errInjected = errors.New("injected store fault")

// faultyStore injects one fault into a working store: a name that does not
// resolve, a link to an artifact that is gone, or an error from Resolve,
// Get (a plain one, or ErrCorrupt), Put or Link.
type faultyStore struct {
	cas.Store
	fault string
}

func (f *faultyStore) Resolve(name cas.Key) (cas.Key, bool, error) {
	switch f.fault {
	case "unlinked":
		return "", false, nil
	case "resolve":
		return "", false, errInjected
	}
	return f.Store.Resolve(name)
}

func (f *faultyStore) Get(k cas.Key) ([]byte, bool, error) {
	switch f.fault {
	case "dangling":
		return nil, false, nil
	case "get":
		return nil, false, errInjected
	case "corrupt":
		return nil, false, fmt.Errorf("%w %s: injected", cas.ErrCorrupt, k.Short())
	}
	return f.Store.Get(k)
}

func (f *faultyStore) Put(data []byte) (cas.Key, error) {
	if f.fault == "put" {
		return "", errInjected
	}
	return f.Store.Put(data)
}

func (f *faultyStore) Link(name, target cas.Key) error {
	if f.fault == "link" {
		return errInjected
	}
	return f.Store.Link(name, target)
}

// memoPath runs one memoized unit over store and counts the bodies that ran.
type memoPath func(store cas.Store) (bodies int, err error)

func registryPath(store cas.Store) (int, error) {
	bodies := 0
	r := exp.NewRegistry()
	err := r.Register(exp.Experiment{
		Spec: exp.Spec{Name: "unit"},
		Run: func(context.Context, *exp.Env, exp.Spec) (*exp.Result, error) {
			bodies++
			return &exp.Result{Artifacts: map[string]string{"out": "bytes"}}, nil
		},
	})
	if err == nil {
		_, err = r.Run(context.Background(), &exp.Env{Store: store}, "unit")
	}
	return bodies, err
}

func shardsPath(store cas.Store) (int, error) {
	bodies := 0
	_, _, err := exp.MapShards(&exp.Env{Store: store}, "unit", 1, 1,
		func(int, int, int) cas.Key { return cas.KeyOf([]byte("unit shard")) },
		func(int, int, int) (string, error) { bodies++; return "agg", nil },
		func(acc, shard *string) { *acc += *shard })
	return bodies, err
}

func stepPath(store cas.Store) (int, error) {
	bodies := 0
	wf := workflow.New("unit")
	wf.MustAdd(workflow.Step{ID: "only"})
	m := &cas.Memo{Store: store, Clock: clock.NewSim(1)}
	_, err := m.Run(context.Background(), wf, map[string]workflow.StepFunc{
		"only": func(context.Context, map[string]any) (any, error) { bodies++; return "value", nil },
	}, nil)
	return bodies, err
}

// Every reader and writer of a memo sees one behaviour per fault, the one
// DESIGN §5 tabulates: no link and a dangling link are misses in the three
// memo paths, and a 404 and a 410 in smsd; a store error, ErrCorrupt
// included, is an error, or a 500; a failed Put or Link fails the unit and
// leaves no link, and smsd then answers 409 for the failed job.
func TestOneBehaviourPerFault(t *testing.T) {
	paths := map[string]memoPath{"registry": registryPath, "shards": shardsPath, "step": stepPath}
	for _, tc := range []struct {
		fault   string
		write   bool  // injected while the cold run stores, not after it
		miss    bool  // the memo paths run their body and succeed
		err     error // the error the memo paths return
		fetches int   // both smsd fetches' status
	}{
		{fault: "unlinked", miss: true, fetches: http.StatusNotFound},
		{fault: "dangling", miss: true, fetches: http.StatusGone},
		{fault: "resolve", err: errInjected, fetches: http.StatusInternalServerError},
		{fault: "get", err: errInjected, fetches: http.StatusInternalServerError},
		{fault: "corrupt", err: cas.ErrCorrupt, fetches: http.StatusInternalServerError},
		{fault: "put", write: true, err: errInjected, fetches: http.StatusConflict},
		{fault: "link", write: true, err: errInjected, fetches: http.StatusConflict},
	} {
		for name, run := range paths {
			t.Run(tc.fault+"/"+name, func(t *testing.T) {
				store := &faultyStore{Store: cas.NewMemStore()}
				if tc.write {
					store.fault = tc.fault
				} else if _, err := run(store); err != nil {
					t.Fatal(err)
				}
				store.fault = tc.fault
				bodies, err := run(store)
				if tc.miss && (err != nil || bodies != 1) {
					t.Fatalf("%d bodies, err %v; want a miss that runs the body once", bodies, err)
				}
				if !tc.miss && (!errors.Is(err, tc.err) || (!tc.write && bodies != 0)) {
					t.Fatalf("%d bodies, err %v; want %v", bodies, err, tc.err)
				}
				if links, _ := store.Store.Links(); tc.write && len(links) != 0 {
					t.Fatalf("a failed %s left links %v", tc.fault, links)
				}
			})
		}
		t.Run(tc.fault+"/smsd", func(t *testing.T) { smsdFetches(t, tc.fault, tc.write, tc.fetches) })
	}
}

// smsdFetches completes one job, with the fault injected before the job
// runs or after it, and checks both fetches' status.
func smsdFetches(t *testing.T, fault string, write bool, want int) {
	reg := exp.NewRegistry()
	if err := reg.Register(exp.Experiment{
		Spec: exp.Spec{Name: "unit"},
		Run: func(context.Context, *exp.Env, exp.Spec) (*exp.Result, error) {
			return &exp.Result{Artifacts: map[string]string{"out.txt": "bytes"}}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	store := &faultyStore{Store: cas.NewMemStore()}
	srv, err := serve.NewServer(serve.Config{Registry: reg, Store: store, Clock: clock.NewSim(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if write {
		store.fault = fault
	}
	do := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w
	}
	do(http.MethodPost, "/experiments", `{"name":"unit"}`)
	srv.Wait()
	store.fault = fault
	for _, what := range []string{"artifacts/out.txt", "runpack"} {
		w := do(http.MethodGet, "/experiments/"+serve.JobID("unit", 0)+"/"+what, "")
		if w.Code != want || (want == http.StatusOK) != (w.Header().Get("X-Content-Digest") != "") {
			t.Errorf("GET %s under %s = %d %q, want %d", what, fault, w.Code, w.Body.String(), want)
		}
	}
}
