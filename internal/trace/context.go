package trace

import (
	"context"
	"strconv"
	"strings"
)

type spanKey struct{}
type remoteKey struct{}

// spanCtx carries the active span. A context type of the package's own
// holds the handle as a field, so deriving it is the one allocation
// context.WithValue would be, and reading it boxes nothing.
type spanCtx struct {
	context.Context
	sp Span
}

func (c *spanCtx) Value(key any) any {
	if key == (spanKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// ContextWithSpan returns ctx carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.rec == nil {
		return ctx
	}
	return &spanCtx{ctx, sp}
}

// SpanFromContext returns the active span, or the zero Span when the
// request is not being traced. The zero Span is safe to use.
func SpanFromContext(ctx context.Context) Span {
	if c, ok := ctx.Value(spanKey{}).(*spanCtx); ok {
		return c.sp
	}
	return Span{}
}

// StartSpan begins a child of the active span, inheriting its trace and
// site, and derives the context its own children hang off; a span that will
// have none is cheaper as SpanFromContext(ctx).Child(name). When the request
// is untraced it returns (ctx, Span{}) and costs only the context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, Span) {
	sp := SpanFromContext(ctx).Child(name)
	return ContextWithSpan(ctx, sp), sp
}

// AttachRemote stitches spans recorded by a remote gateway into the active
// trace, marking them Remote. No-op when the request is untraced or its
// trace has been recycled.
func AttachRemote(ctx context.Context, spans []SpanData) {
	SpanFromContext(ctx).attachRemote(spans)
}

// Carrier is the trace context that crosses a gateway-to-gateway hop.
type Carrier struct {
	TraceID string // the originating trace
	Parent  string // the calling gateway's span the remote work nests under
	Sampled bool   // whether the remote gateway should record spans
}

// Header renders the carrier as the X-GridRM-Trace header value.
func (c Carrier) Header() string {
	s := "0"
	if c.Sampled {
		s = "1"
	}
	return c.TraceID + "-" + c.Parent + "-" + s
}

// validID accepts what StartTrace and spanID can produce — hex and ".", the
// longest a 32-byte trace ID — with room to spare: at most 64 bytes.
func validID(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '.' {
			return false
		}
	}
	return s != "" && len(s) <= 64
}

// ParseCarrier parses an X-GridRM-Trace header value. ok is false for an
// empty or malformed value, including IDs this package could not have made:
// the header arrives from the network, unauthenticated.
func ParseCarrier(h string) (c Carrier, ok bool) {
	traceID, rest, _ := strings.Cut(strings.TrimSpace(h), "-")
	parent, flag, _ := strings.Cut(rest, "-")
	sampled, err := strconv.ParseBool(flag)
	if err != nil || !validID(traceID) || !validID(parent) {
		return Carrier{}, false
	}
	return Carrier{TraceID: traceID, Parent: parent, Sampled: sampled}, true
}

// CarrierFromContext builds the outbound carrier for the active span; ok is
// false when the request is untraced or its trace has been recycled (send
// no header).
func CarrierFromContext(ctx context.Context) (Carrier, bool) {
	sp := SpanFromContext(ctx)
	r := sp.lock()
	if r == nil {
		return Carrier{}, false
	}
	defer r.mu.Unlock()
	return Carrier{TraceID: r.traceID, Parent: r.spanID(sp.slot), Sampled: true}, true
}

// ContextWithRemote marks ctx as serving an inbound remote request carrying
// c; the gateway's next StartTrace continues that trace instead of starting
// its own.
func ContextWithRemote(ctx context.Context, c Carrier) context.Context {
	return context.WithValue(ctx, remoteKey{}, c)
}

func remoteFromContext(ctx context.Context) (Carrier, bool) {
	c, ok := ctx.Value(remoteKey{}).(Carrier)
	return c, ok
}
