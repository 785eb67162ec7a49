package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/server"
)

// driver executes one operation and returns its latency. opErr reports an
// operation the program refused (an error or a non-200 status); a wrong
// answer is found by check, which runs outside the latency window.
type driver interface {
	do(o *op) (lat time.Duration, opErr error)
	// check compares the answer of the operation just done with the model.
	check(o *op) error
	close() error
}

// coreDriver calls core.DB directly from the benchmark's goroutine.
type coreDriver struct {
	db *core.DB

	doc     []byte
	found   bool
	entries []core.Entry
}

func (d *coreDriver) do(o *op) (time.Duration, error) {
	var err error
	t0 := time.Now()
	switch o.kind {
	case opPut:
		err = d.db.Put(o.key, o.doc)
	case opGet:
		d.doc, d.found, err = d.db.Get(o.key)
	case opLookup:
		d.entries, err = d.db.Lookup(o.attr, o.lo, o.k)
	case opRange:
		d.entries, err = d.db.RangeLookup(o.attr, o.lo, o.hi, o.k)
	}
	return time.Since(t0), err
}

func (d *coreDriver) check(o *op) error {
	switch o.kind {
	case opGet:
		return checkDoc(o.key, o.doc, d.doc, d.found)
	case opLookup, opRange:
		es := d.entries
		return checkEntries(o.want, len(es),
			func(i int) string { return es[i].Key },
			func(i int) []byte { return es[i].Value })
	}
	return nil
}

func (d *coreDriver) close() error { return d.db.Close() }

// httpDriver sends each operation as one HTTP request over a single
// keep-alive connection to lsmserver's handler, served by a real
// http.Server on a loopback port. The closed loop sends the next request
// only after the previous response has been read in full.
type httpDriver struct {
	db     *core.DB
	srv    *http.Server
	done   chan error
	client *http.Client
	base   string
	timed  *timedHandler

	status int
	body   []byte
	rtt    time.Duration // Σ client round-trip time
}

// timedHandler times ServeHTTP of the wrapped handler: the server's share
// of each round trip, for the traced run.
type timedHandler struct {
	h       http.Handler
	serveNS atomic.Int64
	served  atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.serveNS.Add(int64(time.Since(t0)))
	t.served.Add(1)
}

func startHTTP(db *core.DB) (*httpDriver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	th := &timedHandler{h: server.NewWith(db, server.Config{Metrics: true})}
	d := &httpDriver{
		db:    db,
		srv:   &http.Server{Handler: th},
		done:  make(chan error, 1),
		timed: th,
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *httpDriver) request(o *op) *http.Request {
	var method, u string
	var body io.Reader
	switch o.kind {
	case opPut:
		method, u, body = http.MethodPut, d.base+"/doc/"+o.key, bytes.NewReader(o.doc)
	case opGet:
		method, u = http.MethodGet, d.base+"/doc/"+o.key
	case opLookup:
		method, u = http.MethodGet, fmt.Sprintf("%s/lookup?attr=%s&value=%s&k=%d",
			d.base, url.QueryEscape(o.attr), url.QueryEscape(o.lo), o.k)
	case opRange:
		method, u = http.MethodGet, fmt.Sprintf("%s/rangelookup?attr=%s&lo=%s&hi=%s&k=%d",
			d.base, url.QueryEscape(o.attr), url.QueryEscape(o.lo), url.QueryEscape(o.hi), o.k)
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		panic(err) // the URL is built from generated keys; a failure is a bug
	}
	return req
}

func (d *httpDriver) do(o *op) (time.Duration, error) {
	req := d.request(o)
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return time.Since(t0), err
	}
	d.body, err = appendAll(d.body[:0], resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	d.rtt += lat
	d.status = resp.StatusCode
	if err != nil {
		return lat, err
	}
	if d.status != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, d.status, strings.TrimSpace(string(d.body)))
	}
	return lat, nil
}

// appendAll reads r to EOF onto buf, reusing its capacity.
func appendAll(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

type wireEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

func (d *httpDriver) check(o *op) error {
	switch o.kind {
	case opGet:
		return checkDoc(o.key, o.doc, d.body, true)
	case opLookup, opRange:
		var es []wireEntry
		if err := json.Unmarshal(d.body, &es); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		return checkEntries(o.want, len(es),
			func(i int) string { return es[i].Key },
			func(i int) []byte { return es[i].Value })
	}
	return nil
}

func (d *httpDriver) close() error {
	d.client.CloseIdleConnections()
	err := d.srv.Close()
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := d.db.Close(); err == nil {
		err = cerr
	}
	return err
}
