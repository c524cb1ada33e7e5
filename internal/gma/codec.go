package gma

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"gridrm/internal/glue"
	"gridrm/internal/httpjson"
)

// The directory codec: a Registration and a list of them write and read
// their own JSON (httpjson.Appender and Decoder), byte for byte what
// encoding/json makes of Registration's tags, so neither a heartbeat nor a
// changed list is encoded or decoded by reflection. The decoder reads on
// httpjson.Cursor and accepts a subset of what encoding/json accepts: a
// known key is spelled exactly and appears once; a key it does not know (an
// older peer's "owns" or "generation") is checked and skipped, and null
// leaves a field zero. A role and a group that are the package's and the
// GLUE schema's own names take those strings instead of new ones.

var registrationKeys = [...]string{"name", "endpoint", "role", "groups", "registeredAt"}

// registrations is a directory list on the wire.
type registrations []Registration

// jsonSize is what AppendJSON writes of r, but for escapes.
func (r *Registration) jsonSize() int {
	n := len(`{"name":"","endpoint":"","role":"","groups":[],"registeredAt":""}`+time.RFC3339Nano) +
		len(r.Name) + len(r.Endpoint) + len(r.Role)
	for _, g := range r.Groups {
		n += len(g) + 3
	}
	return n
}

// AppendJSON implements httpjson.Appender.
func (r Registration) AppendJSON(buf []byte) ([]byte, error) {
	buf = append(slices.Grow(buf, r.jsonSize()), '{')
	if r.Name != "" {
		buf = append(httpjson.AppendString(append(buf, `"name":`...), r.Name), ',')
	}
	buf = httpjson.AppendString(append(buf, `"endpoint":`...), r.Endpoint)
	if r.Role != "" {
		buf = httpjson.AppendString(append(buf, `,"role":`...), string(r.Role))
	}
	if len(r.Groups) > 0 {
		buf = append(buf, `,"groups":[`...)
		for i, g := range r.Groups {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = httpjson.AppendString(buf, g)
		}
		buf = append(buf, ']')
	}
	if y := r.RegisteredAt.Year(); y < 0 || y > 9999 {
		return nil, fmt.Errorf("gma: registeredAt year %d outside [0,9999]", y)
	}
	buf = append(buf, `,"registeredAt":"`...)
	buf = r.RegisteredAt.AppendFormat(buf, time.RFC3339Nano)
	return append(buf, `"}`...), nil
}

// AppendJSON implements httpjson.Appender.
func (rs registrations) AppendJSON(buf []byte) ([]byte, error) {
	if rs == nil {
		return append(buf, "null"...), nil
	}
	size := len(rs) + 1
	for i := range rs {
		size += rs[i].jsonSize()
	}
	buf = append(slices.Grow(buf, size), '[')
	for i := range rs {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = rs[i].AppendJSON(buf); err != nil {
			return nil, err
		}
	}
	return append(buf, ']'), nil
}

// DecodeJSON implements httpjson.Decoder: one record, all of data. It checks
// the syntax only; whoever takes the record checks its fields.
func (r *Registration) DecodeJSON(data []byte) error {
	d := httpjson.NewCursor(data)
	*r = Registration{}
	if err := r.decode(&d); err != nil {
		return err
	}
	return d.End()
}

// DecodeJSON implements httpjson.Decoder: a directory's list, all of data.
// It yields only records fit to route by — a name, an endpoint and a known
// role — and refuses the whole list for one that is not.
func (rs *registrations) DecodeJSON(data []byte) error {
	d := httpjson.NewCursor(data)
	if d.Peek() == 'n' && d.Literal("null") {
		*rs = nil
		return d.End()
	}
	// A record takes at least one '{' and ten bytes.
	list := make(registrations, 0, min(bytes.Count(data, []byte{'{'}), len(data)/10))
	more, err := d.Open('[', ']')
	for more && err == nil {
		var r Registration
		if err = r.decode(&d); err != nil {
			return err
		}
		if err = r.check(); err != nil {
			return fmt.Errorf("gma: directory listed %q: %w", r.Name, err)
		}
		list = append(list, r)
		more, err = d.More(']')
	}
	if err != nil {
		return err
	}
	*rs = list
	return d.End()
}

// decode reads the record object at d's cursor into r, which is zero.
func (r *Registration) decode(d *httpjson.Cursor) error {
	if d.Peek() == 'n' && d.Literal("null") {
		return nil
	}
	for f := (httpjson.Fields{Known: registrationKeys[:]}); ; {
		i, err := d.Next(&f)
		if i < 0 || err != nil {
			return err
		}
		if d.Peek() == 'n' && d.Literal("null") {
			continue
		}
		switch i {
		case 0, 1, 2:
			b, err := d.StringValue()
			if err != nil {
				return err
			}
			switch i {
			case 0:
				r.Name = string(b)
			case 1:
				r.Endpoint = string(b)
			default:
				r.Role = role(b)
			}
		case 3:
			if r.Groups, err = groups(d); err != nil {
				return err
			}
		case 4:
			start := d.Offset()
			if _, _, err := d.StringLit(); err != nil {
				return err
			}
			if err := r.RegisteredAt.UnmarshalJSON(d.Since(start)); err != nil {
				return d.Errorf("registeredAt: %v", err)
			}
		}
	}
}

// role is the Role b spells, the package's own string for a known one.
func role(b []byte) Role {
	switch string(b) {
	case string(RoleSite):
		return RoleSite
	case string(RoleRepublisher):
		return RoleRepublisher
	}
	return Role(b)
}

// groups reads an array of group names; a GLUE group takes the schema's
// string for its name, and a null element is "", as in encoding/json.
func groups(d *httpjson.Cursor) ([]string, error) {
	rest := d.Rest()
	// One more than the commas is the element count, or above it when a
	// name holds one; an element and its separator take three bytes.
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		end = len(rest)
	}
	list := make([]string, 0, min(bytes.Count(rest[:end], []byte{','})+1, len(rest)/3))
	more, err := d.Open('[', ']')
	for more && err == nil {
		if d.Peek() == 'n' && d.Literal("null") {
			list = append(list, "")
		} else {
			b, err := d.StringValue()
			if err != nil {
				return nil, err
			}
			if g := glue.GroupSpelled(b); g != nil {
				list = append(list, g.Name)
			} else {
				list = append(list, string(b))
			}
		}
		more, err = d.More(']')
	}
	return list, err
}

// check normalizes r and reports whether a directory may hold it.
func (r *Registration) check() error {
	r.normalize()
	if r.Name == "" || r.Endpoint == "" {
		return errors.New("gma: registration needs name and endpoint")
	}
	if !r.Role.valid() {
		return fmt.Errorf("gma: unknown role %q", r.Role)
	}
	return nil
}
