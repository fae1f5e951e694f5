package dynctrl_test

import (
	"context"
	"errors"
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

	// Flush is the barrier: everything submitted before it has been
	// answered, so the controller may be read.
	pl.Flush()
	fmt.Println("granted:", ctl.Granted())

	pl.Close()
	_, err = pl.Submit(dynctrl.Request{Node: root, Kind: dynctrl.None})
	fmt.Println("after Close:", errors.Is(err, dynctrl.ErrPipelineClosed))
	// Output:
	// add-leaf: granted new node created: true
	// event: granted
	// granted: 2
	// after Close: true
}

// serve starts a dynctrld server on loopback serving one tenant, "default",
// over a balanced tree of 8 nodes. Outside a test the server would be a
// separately running dynctrld process.
func serve() *server.Server {
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
	return srv
}

// ExampleDial starts a dynctrld server on loopback and submits one
// request through the pooled wire client.
func ExampleDial() {
	srv := serve()
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

// ExampleDial_errors tells the errors of a remote controller apart: the
// server refuses a tenant it does not serve, answers a request for a node
// its tree does not hold with an error of that request alone, and a closed
// client fails every call.
func ExampleDial_errors() {
	srv := serve()
	defer srv.Shutdown(context.Background())

	describe := func(err error) string {
		var refused *dynctrl.HandshakeError
		var failed *dynctrl.ResultError
		switch {
		case errors.As(err, &refused):
			return fmt.Sprintf("handshake refused, code %d", refused.Code)
		case errors.Is(err, dynctrl.ErrHandshake):
			return "handshake lost on the wire"
		case errors.As(err, &failed):
			return fmt.Sprintf("request failed: %v", failed)
		case errors.Is(err, dynctrl.ErrWriteTimeout):
			return "server stopped reading"
		case errors.Is(err, dynctrl.ErrClosed):
			return "client closed"
		}
		return fmt.Sprint(err)
	}

	_, err := dynctrl.Dial(srv.Addr(), dynctrl.RemoteOptions{Tenant: "elsewhere"})
	fmt.Println(describe(err))

	cl, err := dynctrl.Dial(srv.Addr(), dynctrl.RemoteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	_, err = cl.Submit(dynctrl.Request{Node: 99, Kind: dynctrl.None})
	fmt.Println(describe(err))
	cl.Close()
	_, err = cl.Submit(dynctrl.Request{Node: 1, Kind: dynctrl.None})
	fmt.Println(describe(err))
	// Output:
	// handshake refused, code 12
	// request failed: dynctrld: bad request
	// client closed
}

// ExampleNewHeavyChild grows a tree through the heavy-child decomposition:
// the root's heavy child is the child with the largest subtree, and no
// node has more than O(log n) light ancestors (Theorem 5.4).
func ExampleNewHeavyChild() {
	tr, root := dynctrl.NewTree()
	hc, err := dynctrl.NewHeavyChild(tr, dynctrl.Centralized)
	if err != nil {
		log.Fatal(err)
	}
	add := func(parent dynctrl.NodeID) dynctrl.NodeID {
		g, err := hc.Submit(dynctrl.Request{Node: parent, Kind: dynctrl.AddLeaf})
		if err != nil {
			log.Fatal(err)
		}
		return g.NewNode
	}
	small, big := add(root), add(root)
	leaf := big
	for i := 0; i < 30; i++ {
		leaf = add(leaf)
	}
	twig := add(small)
	heavy, err := hc.Heavy(root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the root's heavy child heads the big subtree:", heavy == big)
	for _, v := range []struct {
		name string
		id   dynctrl.NodeID
	}{{"the deepest leaf", leaf}, {"the small subtree's leaf", twig}} {
		light, err := hc.LightAncestors(v.id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d light ancestors\n", v.name, light)
	}
	// Output:
	// the root's heavy child heads the big subtree: true
	// the deepest leaf: 0 light ancestors
	// the small subtree's leaf: 1 light ancestors
}

// ExampleNewDynamicAncestryLabeling grows a tree to 1024 nodes and shrinks
// it back to 16 through the dynamic ancestry labeling. The scheme is rebuilt
// whenever the size estimate doubles or halves, so the longest label tracks
// the current n (Corollary 5.7) and not the largest n the tree ever had.
func ExampleNewDynamicAncestryLabeling() {
	tr, root := dynctrl.NewTree()
	dl, err := dynctrl.NewDynamicAncestryLabeling(tr, dynctrl.Centralized)
	if err != nil {
		log.Fatal(err)
	}
	submit := func(req dynctrl.Request) dynctrl.NodeID {
		g, err := dl.Submit(req)
		if err != nil || g.Outcome != dynctrl.Granted {
			log.Fatal(g.Outcome, err)
		}
		return g.NewNode
	}
	report := func() {
		fmt.Printf("n = %4d: longest label %2d bits, %d rebuilds\n", tr.Size(), dl.Scheme().MaxBits(), dl.Rebuilds())
	}
	report()
	var leaves []dynctrl.NodeID
	for tr.Size() < 1024 {
		leaves = append(leaves, submit(dynctrl.Request{Node: root, Kind: dynctrl.AddLeaf}))
	}
	report()
	for _, leaf := range leaves[15:] {
		submit(dynctrl.Request{Node: leaf, Kind: dynctrl.RemoveLeaf})
	}
	report()
	// Output:
	// n =    1: longest label  2 bits, 1 rebuilds
	// n = 1024: longest label 18 bits, 8 rebuilds
	// n =   16: longest label 12 bits, 11 rebuilds
}
