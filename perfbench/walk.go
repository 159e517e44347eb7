package main

import (
	"context"
	"fmt"
	"time"

	"lonviz/internal/dvs"
	"lonviz/internal/exnode"
	"lonviz/internal/lightfield"
	"lonviz/internal/lors"
	"lonviz/internal/obs"
)

// walkResult holds the layer walk's per-call timings in ms.
type walkResult struct {
	dvsGet, exnode, download, decode, render []float64
	decodedBytes                             int64
	decodeSec                                float64
	errors, mismatches                       int
}

// layerWalk calls each layer directly, one span per call, for every
// distinct view set the timed phase accessed: the DVS get, the exNode
// decode, the lors download, the view-set decode and one render.
func (r *runner) layerWalk(ctx context.Context, ids []lightfield.ViewSetID, tr *tracer) walkResult {
	var out walkResult
	d := r.d
	d.trace.p.Store(tr)
	defer d.trace.p.Store(nil)
	reg := obs.NewRegistry()
	client := &dvs.Client{Addr: d.dvsAddr, Dialer: d.dvsDialer(), Obs: reg}
	dl := lors.DownloadOptions{Dialer: d.agentDialer(), Obs: reg, Tracer: obs.NewTracer(64)}
	root := tr.start("walk", 0)
	defer root.end()
	timed := func(name string, into *[]float64, f func() error) error {
		sp := tr.start(name, root.ID())
		t := time.Now()
		err := f()
		el := time.Since(t)
		sp.end()
		*into = append(*into, float64(el)/1e6)
		return err
	}
	for _, id := range ids {
		if err := r.walkOne(ctx, id, client, dl, timed, &out); err != nil {
			out.errors++
		}
	}
	return out
}

func (r *runner) walkOne(ctx context.Context, id lightfield.ViewSetID, client *dvs.Client, dl lors.DownloadOptions,
	timed func(string, *[]float64, func() error) error, out *walkResult) error {
	p := r.d.params
	var docs [][]byte
	if err := timed("walk.dvs_get", &out.dvsGet, func() (err error) {
		docs, err = client.Get(ctx, dvs.Key{Dataset: dataset, ViewSet: id.String()})
		return err
	}); err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("no exNode for %v", id)
	}
	var ex *exnode.ExNode
	if err := timed("walk.exnode", &out.exnode, func() (err error) {
		ex, err = exnode.Unmarshal(docs[0])
		return err
	}); err != nil {
		return err
	}
	var frame []byte
	if err := timed("walk.lors_download", &out.download, func() (err error) {
		frame, _, err = lors.Download(ctx, ex, dl)
		return err
	}); err != nil {
		return err
	}
	var vs *lightfield.ViewSet
	t := time.Now()
	if err := timed("walk.decode", &out.decode, func() (err error) {
		vs, err = lightfield.DecodeViewSet(frame, p)
		return err
	}); err != nil {
		return err
	}
	out.decodeSec += time.Since(t).Seconds()
	for _, im := range vs.Views {
		out.decodedBytes += int64(len(im.Pix))
	}
	if truth, ok := r.truth[id]; !ok || digest(vs) != truth {
		out.mismatches++
		return fmt.Errorf("walk: view set %v differs from ground truth", id)
	}
	return timed("walk.render", &out.render, func() error {
		rd, err := lightfield.NewRenderer(p, lightfield.MapProvider{id: vs})
		if err != nil {
			return err
		}
		cam, err := p.ViewerCamera(p.SetCenterAngles(id), p.OuterRadius*1.6, renderRes)
		if err != nil {
			return err
		}
		_, _, err = rd.RenderView(cam)
		return err
	})
}
