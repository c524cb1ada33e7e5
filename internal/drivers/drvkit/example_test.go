package drvkit_test

import (
	"fmt"

	"gridrm/internal/drivers/drvkit"
	"gridrm/internal/glue"
	"gridrm/internal/schema"
)

// hello is a complete native driver: a session that answers for one host
// without touching the network, a one-group GLUE mapping, and a Spec.
type hello struct{ host string }

func (h hello) Ping() error  { return nil }
func (h hello) Close() error { return nil }
func (h hello) Fetch(rows *drvkit.Rows) error {
	return rows.Add(func(native string) (any, bool) { return h.host, native == "name" })
}

func helloSchema() *schema.DriverSchema {
	return &schema.DriverSchema{Driver: "jdbc-hello", Groups: map[string]*schema.GroupMapping{
		glue.GroupProcessor: {Group: glue.GroupProcessor, Fields: []schema.FieldMapping{
			{GLUEField: "HostName", Native: "name"}}}}}
}

func Example() {
	d := drvkit.New(drvkit.Spec{Name: "jdbc-hello", Protocol: "hello", DefaultPort: 7, Agent: "a hello agent",
		Schema: helloSchema,
		Open:   func(t drvkit.Target) (drvkit.Session, error) { return hello{t.URL.Host}, nil }}, nil)
	conn, _ := d.Connect("gridrm:hello://node07", nil)
	stmt, _ := conn.CreateStatement()
	rs, _ := stmt.ExecuteQuery("SELECT HostName FROM Processor WHERE HostName LIKE 'node%'")
	for rs.Next() {
		host, _ := rs.GetString("HostName")
		fmt.Println(conn.Driver(), "reports", host)
	}
	// Output: jdbc-hello reports node07
}
