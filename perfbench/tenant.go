package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"rmq"
	"rmq/internal/api"
	"rmq/perfbench/spec"
)

const (
	// restoreIterations is the budget of a tenant's warm optimize after
	// registering with a snapshot.
	restoreIterations = 40
	// restoreRounds is how many snapshot tenants a traced run registers,
	// and how often it re-times Session.Restore per snapshot.
	restoreRounds = 3
)

// tenant is a catalog prepared for registration with an inline snapshot
// of its warmed store.
type tenant struct {
	cat      *rmq.Catalog
	snapshot []byte
	snapBody []byte // registration carrying the inline snapshot
}

// snapshotSessionOptions are the options rmqd gives a catalog
// registered with the defaults, so a snapshot built from a library
// session restores into the server's session.
var snapshotSessionOptions = []rmq.Option{rmq.WithSharedCache(true), rmq.WithCacheRetention(1)}

// newTenant prepares a catalog's snapshot registration: its warmed-store
// snapshot (one cold run through the library, as a previous tenant would
// have left it) and the registration body carrying it.
func newTenant(c spec.Catalog) (tenant, error) {
	metrics, err := spec.ParseMetrics(spec.AllThree)
	if err != nil {
		return tenant{}, err
	}
	t := tenant{cat: c.Generate()}
	sess, err := rmq.NewSession(t.cat, snapshotSessionOptions...)
	if err != nil {
		return tenant{}, err
	}
	if _, err := sess.Optimize(context.Background(), rmq.WithMetrics(metrics...), rmq.WithParallelism(1),
		rmq.WithMaxIterations(primeIterations), rmq.WithSeed(primeSeed)); err != nil {
		return tenant{}, fmt.Errorf("warming %s: %w", c.Name, err)
	}
	if t.snapshot, err = sess.Snapshot(); err != nil {
		return tenant{}, fmt.Errorf("snapshotting %s: %w", c.Name, err)
	}
	if t.snapBody, err = json.Marshal(&api.CatalogRequest{Name: c.Name, Generate: c.Request(), Snapshot: t.snapshot}); err != nil {
		return tenant{}, err
	}
	return t, nil
}

// snapshotLayers times Session.Restore directly on the tenant's
// snapshot and reports the median restore time and the snapshot size.
func snapshotLayers(rep *report, t *tenant) error {
	var restores []float64
	for r := 0; r < restoreRounds; r++ {
		sess, err := rmq.NewSession(t.cat, snapshotSessionOptions...)
		if err != nil {
			return err
		}
		begin := time.Now()
		if err := sess.Restore(t.snapshot); err != nil {
			rep.fail("restoring snapshot: %v", err)
			continue
		}
		restores = append(restores, ms(time.Since(begin)))
	}
	rep.values["snapshot.restore_ms"], rep.values["snapshot.bytes"] = median(restores), float64(len(t.snapshot))
	return nil
}

// restoreTenant registers a tenant with its inline snapshot, optimizes
// warm once and deletes the catalog. It returns the time from the
// registration to the optimize answer.
func restoreTenant(c *conn, t *tenant, seed uint64) (time.Duration, error) {
	begin := time.Now()
	status, body, err := c.call("POST", "/catalogs", t.snapBody)
	if err != nil || status != http.StatusCreated {
		return 0, fmt.Errorf("register with snapshot: status %d, %v: %s", status, err, body)
	}
	var info api.CatalogInfo
	if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
		return 0, fmt.Errorf("register with snapshot: bad answer %q", body)
	}
	req := api.OptimizeRequest{Catalog: info.ID, MaxIterations: restoreIterations, Metrics: spec.AllThree,
		Parallelism: 1, Seed: &seed}
	var resp api.OptimizeResponse
	err = c.callJSON("POST", "/optimize", &req, http.StatusOK, &resp)
	took := time.Since(begin)
	if err == nil {
		_, err = checkResponse(&resp, &req)
	}
	if derr := c.callJSON("DELETE", "/catalogs/"+info.ID, nil, http.StatusNoContent, nil); err == nil {
		err = derr
	}
	return took, err
}
