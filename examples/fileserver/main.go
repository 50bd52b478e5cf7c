// Fileserver: the Lustre scenario from the paper (§3.1/§3.2) — a Linux
// service node runs a kernel-level object storage service through kbridge
// while a user-level application on the same node uses ukbridge; both
// share one SeaStar cleanly. Catamount compute nodes act as clients.
//
// The RPC pattern is Lustre's over Portals: a client puts a request to the
// service's request portal; for reads, the service puts the object data
// back into a buffer the client exposed; for writes, the service gets the
// data from the client (server-directed data movement).
//
//	go run ./examples/fileserver
package main

import (
	"encoding/binary"
	"fmt"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

const (
	reqPtl  = 8 // service request portal
	bulkPtl = 9 // client bulk-data portal (exposed for server puts/gets)
	objSize = 64 << 10
)

// Request opcodes.
const (
	opRead  = 1
	opWrite = 2
)

// request is the 16-byte RPC header a client puts to the service.
type request struct {
	Op     uint32
	Object uint32
	Cookie uint64 // match bits of the client's exposed bulk buffer
}

func encodeReq(r request) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint32(b[0:], r.Op)
	binary.LittleEndian.PutUint32(b[4:], r.Object)
	binary.LittleEndian.PutUint64(b[8:], r.Cookie)
	return b
}

func decodeReq(b []byte) request {
	return request{
		Op:     binary.LittleEndian.Uint32(b[0:]),
		Object: binary.LittleEndian.Uint32(b[4:]),
		Cookie: binary.LittleEndian.Uint64(b[8:]),
	}
}

func main() {
	// Node 0 is the Linux service node; nodes 1-2 are Catamount compute
	// nodes, as on a real XT3 partition.
	tp, err := topo.New(3, 1, 1, false, false, false)
	if err != nil {
		panic(err)
	}
	m := machine.NewSharded(model.Defaults(), tp, 1)
	m.OSKind = func(n topo.NodeID) oskernel.Kind {
		if n == 0 {
			return oskernel.Linux
		}
		return oskernel.Catamount
	}

	// The kernel-level storage service (kbridge: no syscall per call).
	service, err := m.Spawn(0, "oss", machine.KernelService, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(256)
		me, _ := app.API.MEAttach(reqPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
			0, ^uint64(0), core.Retain, core.After)
		reqBuf := app.Alloc(16 << 10)
		app.API.MDAttach(me, core.MDesc{
			Region:    reqBuf,
			Threshold: core.ThresholdInfinite,
			Options:   core.MDOpPut | core.MDEventStartDisable,
			EQ:        eq,
		}, core.Retain)

		objects := map[uint32]core.Region{} // the "object store"
		served := 0
		for served < 2 {
			ev, err := app.API.EQWait(eq)
			if err != nil || ev.Type != core.EventPutEnd {
				continue
			}
			raw := make([]byte, 16)
			reqBuf.ReadAt(ev.Offset, raw)
			rq := decodeReq(raw)
			client := ev.Initiator
			switch rq.Op {
			case opWrite:
				// Server-directed write: pull the data from the client.
				obj := app.Alloc(objSize)
				geq, _ := app.API.EQAlloc(16)
				gmd, _ := app.API.MDBind(core.MDesc{Region: obj, Threshold: core.ThresholdInfinite, EQ: geq})
				app.API.Get(gmd, client, bulkPtl, rq.Cookie, 0)
				for {
					gev, _ := app.API.EQWait(geq)
					if gev.Type == core.EventReplyEnd {
						break
					}
				}
				objects[rq.Object] = obj
				fmt.Printf("[%9v] oss: WRITE obj %d (%d B) from client %v\n",
					app.Proc.Now(), rq.Object, objSize, client)
			case opRead:
				// Read: push the object into the client's exposed buffer.
				obj, ok := objects[rq.Object]
				if !ok {
					fmt.Printf("[%9v] oss: READ of missing object %d\n", app.Proc.Now(), rq.Object)
					break
				}
				peq, _ := app.API.EQAlloc(16)
				pmd, _ := app.API.MDBind(core.MDesc{Region: obj, Threshold: core.ThresholdInfinite, EQ: peq})
				app.API.Put(pmd, core.NoAck, client, bulkPtl, rq.Cookie, 0, 0)
				for {
					pev, _ := app.API.EQWait(peq)
					if pev.Type == core.EventSendEnd {
						break
					}
				}
				fmt.Printf("[%9v] oss: READ  obj %d served to client %v\n",
					app.Proc.Now(), rq.Object, client)
			}
			served++
		}
	})
	if err != nil {
		panic(err)
	}

	// A user-level monitoring app shares the service node via ukbridge.
	if _, err := m.Spawn(0, "monitor", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(16)
		me, _ := app.API.MEAttach(reqPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
			0x6D6F6E, 0, core.Retain, core.After)
		buf := app.Alloc(64)
		app.API.MDAttach(me, core.MDesc{Region: buf, Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut, EQ: eq}, core.Retain)
		ev, _ := app.API.EQWait(eq)
		fmt.Printf("[%9v] monitor (ukbridge, same node as the oss): got %v from %v\n",
			app.Proc.Now(), ev.Type, ev.Initiator)
	}); err != nil {
		panic(err)
	}

	// Client on a Catamount compute node: write an object, read it back,
	// and ping the monitor to show ukbridge+kbridge sharing one NIC.
	if _, err := m.Spawn(1, "client", machine.Generic, func(app *machine.App) {
		app.Proc.Sleep(50 * sim.Microsecond)

		// Expose a bulk buffer for server-directed transfers.
		const cookie = 0xB0B
		data := app.Alloc(objSize)
		fill := make([]byte, objSize)
		for i := range fill {
			fill[i] = byte(i * 3)
		}
		data.WriteAt(0, fill)
		bulkME, _ := app.API.MEAttach(bulkPtl, service.ID(), cookie, 0, core.Retain, core.After)
		app.API.MDAttach(bulkME, core.MDesc{
			Region:    data,
			Threshold: core.ThresholdInfinite,
			Options:   core.MDOpPut | core.MDOpGet | core.MDManageRemote,
		}, core.Retain)

		eq, _ := app.API.EQAlloc(32)
		reqMD, _ := app.API.MDBind(core.MDesc{Region: core.SliceRegion(encodeReq(request{Op: opWrite, Object: 7, Cookie: cookie})),
			Threshold: core.ThresholdInfinite, EQ: eq})
		app.API.Put(reqMD, core.NoAck, service.ID(), reqPtl, 1, 0, 0)
		fmt.Printf("[%9v] client: sent WRITE request for object 7\n", app.Proc.Now())

		// Wipe the local copy, then read the object back into it.
		app.Proc.Sleep(300 * sim.Microsecond)
		data.WriteAt(0, make([]byte, objSize))
		rd, _ := app.API.MDBind(core.MDesc{Region: core.SliceRegion(encodeReq(request{Op: opRead, Object: 7, Cookie: cookie})),
			Threshold: core.ThresholdInfinite, EQ: eq})
		app.API.Put(rd, core.NoAck, service.ID(), reqPtl, 1, 0, 0)
		fmt.Printf("[%9v] client: sent READ request for object 7\n", app.Proc.Now())

		app.Proc.Sleep(400 * sim.Microsecond)
		got := make([]byte, objSize)
		data.ReadAt(0, got)
		intact := true
		for i := range got {
			if got[i] != byte(i*3) {
				intact = false
				break
			}
		}
		fmt.Printf("[%9v] client: read-back intact: %v\n", app.Proc.Now(), intact)

		// Ping the monitoring app (different pid, same node as the oss).
		ping, _ := app.API.MDBind(core.MDesc{Region: core.SliceRegion([]byte("hi")), Threshold: core.ThresholdInfinite, EQ: eq})
		mon := core.ProcessID{Nid: 0, Pid: service.ID().Pid + 1}
		app.API.Put(ping, core.NoAck, mon, reqPtl, 0x6D6F6E, 0, 0)
	}); err != nil {
		panic(err)
	}

	// Run to a horizon; Close unwinds any process still parked there.
	m.RunUntil(5 * sim.Millisecond)
	fmt.Printf("done at %v; service node took %d interrupts\n", m.S.Now(), m.Node(0).Kernel.Interrupts)
	m.Close()
}
