package dynctrl_test

import (
	"context"
	"fmt"
	"log"

	"dynctrl"
	"dynctrl/internal/server"
	"dynctrl/internal/tree"
)

// ExampleNewController drives the same requests through a controller over
// each transport: a path of three nodes grows under the root, then the
// deepest node asks for permits until M = 8 runs out. Both transports grant
// and reject the same requests; they differ in what they count, moves
// centrally and messages in the simulation.
func ExampleNewController() {
	for _, tp := range []dynctrl.Transport{dynctrl.Centralized, dynctrl.Simulated(42)} {
		tr, node := dynctrl.NewTree()
		ctl := dynctrl.NewController(tr, tp, 8, 2) // (M, W) = (8, 2)
		var verdicts []dynctrl.Outcome
		for i := 0; i < 10; i++ {
			kind := dynctrl.None
			if i < 3 {
				kind = dynctrl.AddLeaf
			}
			grant, err := ctl.Submit(dynctrl.Request{Node: node, Kind: kind})
			if err != nil {
				log.Fatal(err)
			}
			if grant.NewNode != 0 {
				node = grant.NewNode
			}
			verdicts = append(verdicts, grant.Outcome)
		}
		fmt.Println(verdicts)
		fmt.Printf("%s: %d, cost %d\n", tp.Counter, ctl.Counters().Get(tp.Counter), tp.Cost(ctl.Counters()))
	}
	// Output:
	// [granted granted granted granted granted granted granted granted rejected rejected]
	// moves: 27, cost 27
	// [granted granted granted granted granted granted granted granted rejected rejected]
	// control-messages: 27, cost 69
}

// ExampleNewPipeline builds the in-process admission stack — tree and
// (M,W)-Controller over the engine dynctrld serves with — and drives it
// through the pipeline, the lock concurrent callers share it under.
func ExampleNewPipeline() {
	tr, root := dynctrl.NewTree()
	ctl := dynctrl.NewController(tr, dynctrl.Centralized, 1000, 50) // (M, W) = (1000, 50)

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

	cl, err := dynctrl.Dial(srv.Addr(), dynctrl.RemoteOptions{Conns: 2})
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
