package gma

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"gridrm/internal/core"
	"gridrm/internal/trace"
)

// heldBytes bounds the answers a Router holds for revalidation: the
// estimated bytes of every held answer, its key, texts and statuses included.
const heldBytes = 16 << 20

// heldEntryBytes is what every held answer costs beyond its key, texts,
// statuses and cells: its map slot and the heldAnswer, Response and
// ResultSet it holds. An empty answer costs this much, so the budget also
// bounds how many answers are held.
const heldEntryBytes = 512

// heldAnswers are the latest answers republishers gave, one a request, kept
// so that the next identical request asks "still this?" (If-None-Match)
// instead of fetching the answer again. An entry never changes once held: a
// newer answer replaces it, and a caller that read the old one may still
// serve it if the republisher confirms its validator.
type heldAnswers struct {
	mu    sync.Mutex
	m     map[string]*heldAnswer
	bytes int
}

type heldAnswer struct {
	// key is the entry's key in the map, which the answer that replaces it
	// reuses.
	key      string
	endpoint string
	// at is when the answer arrived in full.
	at time.Time
	// token is the republisher's version the answer was last confirmed at:
	// its own, or a 304's since. Guarded by heldAnswers.mu.
	token string
	// resp is the answer as it arrived, with its Validator but without
	// the spans of the query that fetched it; its ResultSet is never handed
	// out, only clones of it.
	resp  core.Response
	bytes int
}

// heldCost estimates the bytes holding resp under key takes.
func heldCost(key []byte, resp *core.Response) int {
	n := heldEntryBytes + len(key) + len(resp.Site) + len(resp.SQL) + len(resp.Validator) +
		resp.ResultSet.Bytes()
	for _, st := range resp.Sources {
		n += int(unsafe.Sizeof(st)) + len(st.Source) + len(st.Driver) + len(st.Err) + len(st.Degraded)
	}
	return n
}

// appendHeldKey appends the key of req sent to endpoint: everything that
// decides a republisher's answer, each field length-prefixed so that no two
// requests share a key. Timeout and Trace decide nothing and are left out.
func appendHeldKey(buf []byte, endpoint string, req *core.QueryOptions) []byte {
	buf = appendField(buf, endpoint)
	buf = appendField(buf, req.Principal.Name)
	buf = binary.AppendUvarint(buf, uint64(len(req.Principal.Roles)))
	for _, role := range req.Principal.Roles {
		buf = appendField(buf, role)
	}
	buf = appendField(buf, req.Principal.Site)
	buf = appendField(buf, req.SQL)
	buf = appendField(buf, req.Site)
	buf = binary.AppendUvarint(buf, uint64(len(req.Region)))
	for _, site := range req.Region {
		buf = appendField(buf, site)
	}
	return append(buf, byte(req.Mode))
}

func appendField(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// get returns the answer held for key, nil when none is, and the version
// it was last confirmed at.
func (h *heldAnswers) get(key []byte) (*heldAnswer, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.m[string(key)]
	if e == nil {
		return nil, ""
	}
	return e, e.token
}

// confirm records that e, if it is still held, is current at version token.
func (h *heldAnswers) confirm(e *heldAnswer, token string) {
	h.mu.Lock()
	if h.m[e.key] == e {
		e.token = token
	}
	h.mu.Unlock()
}

// put holds a copy of resp, which has a validator and a result, for key; it
// arrived at at. Entries are evicted, in no particular order, until it fits
// the budget; an answer larger than the whole budget is not held.
func (h *heldAnswers) put(key []byte, endpoint string, resp *core.Response, at time.Time) {
	cost := heldCost(key, resp)
	h.mu.Lock()
	defer h.mu.Unlock()
	old := h.dropLocked(key)
	if cost > heldBytes {
		return
	}
	for k, e := range h.m {
		if h.bytes+cost <= heldBytes {
			break
		}
		h.bytes -= e.bytes
		delete(h.m, k)
	}
	if h.m == nil {
		h.m = make(map[string]*heldAnswer)
	}
	e := &heldAnswer{endpoint: endpoint, at: at, token: resp.Version, resp: *resp, bytes: cost}
	e.resp.Trace, e.resp.TraceID = nil, "" // they belong to the query that fetched it
	if old != nil {
		e.key = old.key
	} else {
		e.key = string(key)
	}
	h.m[e.key] = e
	h.bytes += cost
}

// drop lets the answer held for key go.
func (h *heldAnswers) drop(key []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropLocked(key)
}

// dropLocked lets the answer held for key go and returns it, nil when none
// was held.
func (h *heldAnswers) dropLocked(key []byte) *heldAnswer {
	old := h.m[string(key)]
	if old != nil {
		h.bytes -= old.bytes
		delete(h.m, old.key)
	}
	return old
}

// retain drops the answers of endpoints live does not list.
func (h *heldAnswers) retain(live map[string]bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, e := range h.m {
		if !live[e.endpoint] {
			h.bytes -= e.bytes
			delete(h.m, k)
		}
	}
}

// size returns how many answers are held and their estimated bytes.
func (h *heldAnswers) size() (answers, bytes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m), h.bytes
}

// call is the one way a Router sends a query to a member. A republisher's
// answer is held, and the next identical request is answered down a ladder:
// while the republisher's version watch is live and names the version the
// held answer was last confirmed at, the held answer is served with no
// request at all; otherwise the request sends the answer's validator, and a
// 304 serves the held answer, as measured on this round trip, with nothing
// encoded, sent or decoded; otherwise the answer comes in full. Validators
// and versions are local to the hop, so no response call returns carries
// one, and a request never passes on its caller's. The remote-query span
// says which rung answered ("answered": watch, not_modified or full) and how
// old the held answer is ("held_age").
func (r *Router) call(ctx context.Context, member Registration, req core.QueryOptions, sp trace.Span) (*core.Response, error) {
	req.Validator = ""
	if member.Role != RoleRepublisher {
		return r.exec(ctx, member.Endpoint, req)
	}
	var buf [256]byte
	key := appendHeldKey(buf[:0], member.Endpoint, &req)
	held, token := r.held.get(key)
	start := r.clock()
	if held != nil && token != "" {
		if w := r.watch(member.Endpoint); w != nil && w.confirms(token, start) {
			r.watchConfirmed.Add(1)
			return r.serveHeld(held, "watch", start, sp), nil
		}
	}
	if held != nil {
		req.Validator = held.resp.Validator
	}
	resp, err := r.exec(ctx, member.Endpoint, req)
	if err != nil {
		return nil, err
	}
	if resp.NotModified {
		if held == nil || resp.Validator != held.resp.Validator {
			return nil, fmt.Errorf("gma: %s answered 304 Not Modified to validator %q with %q", member.Endpoint, req.Validator, resp.Validator)
		}
		r.notModified.Add(1)
		if resp.Version != "" {
			r.held.confirm(held, resp.Version)
			r.follow(member.Endpoint)
		}
		return r.serveHeld(held, "not_modified", start, sp), nil
	}
	if resp.Validator == "" || resp.ResultSet == nil {
		r.held.drop(key)
	} else {
		r.held.put(key, member.Endpoint, resp, r.clock())
		resp.ResultSet = resp.ResultSet.Clone() // nobody writes the held set's arrays
		if resp.Version != "" {
			r.follow(member.Endpoint)
		}
	}
	if sp.Recording() {
		sp.SetAttr("answered", "full")
	}
	resp.Validator, resp.Version = "", ""
	return resp, nil
}

// serveHeld answers from the held answer, which rung confirmed, as measured
// since start.
func (r *Router) serveHeld(held *heldAnswer, rung string, start time.Time, sp trace.Span) *core.Response {
	out := held.resp
	out.ResultSet = held.resp.ResultSet.Clone() // a result set has a cursor
	out.Validator, out.Version = "", ""
	now := r.clock()
	out.Elapsed = now.Sub(start)
	if sp.Recording() {
		sp.SetAttr("answered", rung)
		sp.SetAttr("held_age", now.Sub(held.at).String())
	}
	return &out
}
