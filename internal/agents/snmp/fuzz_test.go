package snmp

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal throws arbitrary bytes at the agent wire decoder. The
// properties: it never panics, and a message it accepts marshals and
// decodes back to the same message.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range []*Message{
		{Community: "public", PDUType: PDUGet, RequestID: 7, Varbinds: []Varbind{{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: NullValue}}},
		{Community: "public", PDUType: PDUResponse, RequestID: 8, Varbinds: []Varbind{
			{OID: MustOID("1.3.6.1.2.1.1.1.0"), Value: StringValue("Linux node 5.4")},
			{OID: MustOID("1.3.6.1.2.1.1.3.0"), Value: TicksValue(12345)},
			{OID: MustOID("1.3.6.1.2.1.25.2.2.0"), Value: IntValue(-42)},
			{OID: MustOID("1.3.6.1.2.1.2.2.1.10.1"), Value: CounterValue(1 << 40)},
		}},
		{PDUType: PDUResponse, ErrorStatus: ErrStatusNoSuchName, ErrorIndex: 1},
	} {
		buf, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1]) // truncated
	}
	f.Add([]byte{})
	f.Add([]byte("SN\x01\x00\xa0\x00\x00\x00\x01\x00\x00\xff\xff")) // claims 65,535 varbinds, has none

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		buf, err := m.Marshal()
		if err != nil {
			t.Fatalf("an accepted message does not marshal: %v\n%+v", err, m)
		}
		again, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("a marshalled message does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, again)
		}
	})
}
