package gma

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
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

func (h *heldAnswers) get(key []byte) *heldAnswer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.m[string(key)]
}

// put holds a copy of resp, which has a validator and a result, for key.
// Entries are evicted, in no particular order, until it fits the budget; an
// answer larger than the whole budget is not held.
func (h *heldAnswers) put(key []byte, endpoint string, resp *core.Response) {
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
	e := &heldAnswer{endpoint: endpoint, resp: *resp, bytes: cost}
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

// retain drops the answers of endpoints that are not republishers in s.
func (h *heldAnswers) retain(s *snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.m) == 0 {
		return
	}
	live := make(map[string]bool)
	for _, reg := range s.regs {
		if reg.Role == RoleRepublisher {
			live[reg.Endpoint] = true
		}
	}
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
// answer is held, and the next identical request sends its validator: a 304
// then serves the held answer, as measured on this round trip, with nothing
// encoded, sent or decoded. Validators are local to the hop, so no response
// call returns carries one, and a request never passes on its caller's.
func (r *Router) call(ctx context.Context, member Registration, req core.QueryOptions, sp trace.Span) (*core.Response, error) {
	req.Validator = ""
	if member.Role != RoleRepublisher {
		return r.exec(ctx, member.Endpoint, req)
	}
	var buf [256]byte
	key := appendHeldKey(buf[:0], member.Endpoint, &req)
	held := r.held.get(key)
	if held != nil {
		req.Validator = held.resp.Validator
	}
	start := r.clock()
	resp, err := r.exec(ctx, member.Endpoint, req)
	if err != nil {
		return nil, err
	}
	if resp.NotModified {
		if held == nil || resp.Validator != held.resp.Validator {
			return nil, fmt.Errorf("gma: %s answered 304 Not Modified to validator %q with %q", member.Endpoint, req.Validator, resp.Validator)
		}
		r.notModified.Add(1)
		sp.SetAttr("not_modified", "true")
		out := held.resp
		out.ResultSet = held.resp.ResultSet.Clone() // a result set has a cursor
		out.Validator = ""
		out.Elapsed = r.clock().Sub(start)
		return &out, nil
	}
	if resp.Validator == "" || resp.ResultSet == nil {
		r.held.drop(key)
	} else {
		r.held.put(key, member.Endpoint, resp)
		resp.ResultSet = resp.ResultSet.Clone() // nobody writes the held set's arrays
	}
	resp.Validator = ""
	return resp, nil
}
