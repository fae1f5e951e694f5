package dynctrl_test

import (
	"context"
	"fmt"
	"log"

	"dynctrl"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
)

// ExampleNewPipeline builds the in-process admission stack — tree,
// deterministic runtime, distributed (M,W)-Controller — and drives it
// through the pipeline, the lock concurrent callers share it under.
func ExampleNewPipeline() {
	tr, root := dynctrl.NewTree()
	rt := dynctrl.NewRuntime(42)
	ctl := dynctrl.NewController(tr, rt, 1000, 50) // (M, W) = (1000, 50)

	pl := dynctrl.NewPipeline(ctl)
	defer pl.Close()

	// Safe from any number of goroutines; here, two serial submissions.
	grant, err := pl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("add-leaf:", grant.Outcome, "new node created:", grant.NewNode != 0)

	grant, err = pl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("event:", grant.Outcome)
	// Output:
	// add-leaf: granted new node created: true
	// event: granted
}

// ExampleDial starts a dynctrld server on loopback and submits one
// request through the pooled wire client. Outside a test the server
// would be a separately running dynctrld process.
func ExampleDial() {
	srv, err := server.New(server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name:     "default",
			Topology: tree.Shape{Kind: "balanced", Nodes: 8},
			Seed:     1, M: 1000, W: 50,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl, err := dynctrl.Dial(srv.Addr(), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	fmt.Println("tenant:", cl.Tenant(), "M:", cl.M(), "W:", cl.W())
	grant, err := cl.Submit(dynctrl.Request{Node: 1, Kind: dynctrl.None})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("event:", grant.Outcome)
	// Output:
	// tenant: default M: 1000 W: 50
	// event: granted
}
