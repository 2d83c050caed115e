package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"dharma"
	"dharma/internal/core"
	"dharma/internal/dht"
	"dharma/internal/kadid"
	"dharma/internal/search"
	"dharma/internal/wire"
)

// span is one recorded call into a layer. parent links the causing
// span, so an operation's spans form a tree under its op.* span.
type span struct {
	id, parent int32
	name       string
	start, end time.Duration // since the recorder's epoch
	items      int32         // dht.append_batch: batch size
}

// tracer keeps spans in memory for the whole run; they are written out
// when the run ends. The client loop is single-goroutine, so the open
// span stack is the causal chain.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	on    bool
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open span; it returns -1 when
// recording is off.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32, items int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.epoch)
	t.spans[id].items = int32(items)
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// write dumps the spans as text, one per line:
// id parent name start_ns duration_ns items.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# id parent name start_ns duration_ns items")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d %d %s %d %d %d\n", s.id, s.parent, s.name, s.start.Nanoseconds(), (s.end - s.start).Nanoseconds(), s.items)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed duration minus the part
// covered by direct child spans (the client loop is sequential, so
// children never overlap).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.name] += s.end - s.start
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.end - s.start
		}
	}
	return self
}

// traceStore is a span-recording dht.Store placed between an engine and
// the overlay (or the read cache in front of it).
type traceStore struct {
	inner dht.Store
	tr    *tracer
}

func (s *traceStore) Append(ctx context.Context, key kadid.ID, entries []wire.Entry) error {
	id := s.tr.begin("dht.append")
	err := s.inner.Append(ctx, key, entries)
	s.tr.end(id, 1)
	return err
}

func (s *traceStore) AppendBatch(ctx context.Context, items []dht.BatchItem) error {
	id := s.tr.begin("dht.append_batch")
	err := s.inner.AppendBatch(ctx, items)
	s.tr.end(id, len(items))
	return err
}

func (s *traceStore) Get(ctx context.Context, key kadid.ID, topN int) ([]wire.Entry, error) {
	id := s.tr.begin("dht.get")
	es, err := s.inner.Get(ctx, key, topN)
	s.tr.end(id, 0)
	return es, err
}

// tracedClient drives an engine assembled from the public constructors
// dharma.NewSystem and NewUDPPeer use, over the facade peer's own
// overlay node, with a traceStore between the engine and the overlay
// (or cache). A non-nil wrap is placed under the traceStore; the
// self-test uses it to inject store faults.
type tracedClient struct {
	engine *core.Engine
	ov     *dht.Overlay
	cache  *dht.Cached
	tr     *tracer
}

func newTracedClient(f *fleet, s spec, i int, tr *tracer, wrap func(dht.Store) dht.Store) (*tracedClient, error) {
	node := f.peers[i].Node
	ov := dht.NewOverlay(node, node.Identity())
	var below dht.Store = ov
	var cache *dht.Cached
	if s.CacheBlocks > 0 {
		cache = dht.NewCached(ov, s.CacheBlocks, 0, nil)
		below = cache
	}
	if wrap != nil {
		below = wrap(below)
	}
	e, err := core.NewEngine(&traceStore{inner: below, tr: tr}, core.Config{
		Mode: s.Mode, K: s.K, Seed: f.engineSeed(i),
	})
	if err != nil {
		return nil, err
	}
	return &tracedClient{engine: e, ov: ov, cache: cache, tr: tr}, nil
}

func (c *tracedClient) InsertResource(ctx context.Context, r, uri string, tags []string) error {
	id := c.tr.begin("op.insert")
	err := c.engine.InsertResource(ctx, r, uri, tags...)
	c.tr.end(id, 0)
	return err
}

func (c *tracedClient) Tag(ctx context.Context, r, t string) error {
	id := c.tr.begin("op.tag")
	err := c.engine.Tag(ctx, r, t)
	c.tr.end(id, 0)
	return err
}

func (c *tracedClient) SearchStep(ctx context.Context, t string) ([]dharma.Weighted, []dharma.Weighted, error) {
	id := c.tr.begin("op.step")
	rel, res, err := c.engine.SearchStep(ctx, t)
	c.tr.end(id, 0)
	return rel, res, err
}

func (c *tracedClient) Navigate(ctx context.Context, start string, opt dharma.NavOptions) (dharma.NavResult, error) {
	id := c.tr.begin("op.navigate")
	v := search.NewEngineView(ctx, c.engine)
	wid := c.tr.begin("search.walk")
	res, err := search.Run(ctx, v, start, search.Random, opt)
	c.tr.end(wid, 0)
	if err == nil {
		err = v.Err()
	}
	c.tr.end(id, 0)
	return res, err
}

func (c *tracedClient) Lookups() int64 { return c.ov.Lookups() }
func (c *tracedClient) Appends() int64 { return c.ov.Appends() }

func (c *tracedClient) CacheHits() int64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.Hits()
}

func (c *tracedClient) CacheMisses() int64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.Misses()
}
