package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"ustore/internal/fabric"
	"ustore/internal/simnet"
	"ustore/internal/simtime"
)

// ErrVerifyTimeout is returned when switched disks fail to reappear within
// the verification window; the Controller rolls the switches back (§IV-C
// step 3).
var ErrVerifyTimeout = errors.New("core: switch verification timed out")

// ErrFabricLocked is returned when a command arrives while another is in
// flight (§IV-C step 1: the fabric is locked during scheduling).
var ErrFabricLocked = errors.New("core: fabric locked by another command")

// Controller executes the Master's topology commands on one deploy unit
// (§IV-C). Two controllers run on two of the unit's hosts; the Master uses
// the primary and falls back to the backup.
type Controller struct {
	host    string
	mcu     int // which microcontroller this controller drives
	cfg     Config
	sched   *simtime.Scheduler
	rpc     *simnet.RPCNode
	fab     *fabric.Fabric
	plane   *fabric.ControlPlane
	binding *fabric.Binding

	// usbView is the Controller's integrated view of the fabric,
	// assembled from EndPoint USB reports ("combining the non-overlapping
	// USB trees", §IV-E).
	usbView map[string]USBReportArgs

	locked bool
	// run is the command that holds the lock.
	run *execRun

	// Stats.
	executed, conflicts, rollbacks uint64
}

// execRun is a command in flight: its caller, its args, and the duplicate
// deliveries of it that wait for its outcome.
type execRun struct {
	from   string
	cmd    ExecuteArgs
	joined []*simnet.AsyncReply
}

// controllerNode returns a controller's RPC node name.
func controllerNode(host string) string { return "ctl:" + host }

// NewController creates the controller running on host, driving mcu (0 =
// primary microcontroller, 1 = backup).
func NewController(net *simnet.Network, host string, mcu int, cfg Config,
	fab *fabric.Fabric, plane *fabric.ControlPlane, binding *fabric.Binding) *Controller {
	c := &Controller{
		host:    host,
		mcu:     mcu,
		cfg:     cfg,
		sched:   net.Scheduler(),
		rpc:     simnet.NewRPCNode(net, controllerNode(host)),
		fab:     fab,
		plane:   plane,
		binding: binding,
		usbView: make(map[string]USBReportArgs),
	}
	c.rpc.RegisterAsync("Execute", c.handleExecute)
	c.rpc.RegisterAsync("NodePower", c.handleNodePower)
	c.rpc.Register("USBReport", c.handleUSBReport)
	return c
}

// Host returns the host this controller runs on.
func (c *Controller) Host() string { return c.host }

// Down simulates the controller's host dying (RPC unreachable). When the
// controller comes back up it ensures its microcontroller is powered
// (backup takeover per §III-B).
func (c *Controller) Down(down bool) {
	c.rpc.Node().SetDown(down)
	if down {
		c.locked = false
	}
}

// TakeOver powers on this controller's microcontroller so it can actuate
// switches after the primary's MCU became unreachable.
func (c *Controller) TakeOver() { c.plane.PowerOnMCU(c.mcu) }

func (c *Controller) handleUSBReport(from string, args any) (any, error) {
	r := args.(USBReportArgs)
	if prev, ok := c.usbView[r.Host]; ok && r.Seq < prev.Seq {
		return struct{}{}, nil
	}
	c.usbView[r.Host] = r
	return struct{}{}, nil
}

// VisibleOn reports whether the controller's integrated USB view shows
// diskID on host.
func (c *Controller) VisibleOn(host, diskID string) bool {
	for _, id := range c.usbView[host].Storage {
		if id == diskID {
			return true
		}
	}
	return false
}

// handleExecute implements the three-step §IV-C procedure: lock the fabric,
// plan with Algorithm 1 (or forced planning), actuate through the
// microcontroller, verify via EndPoint USB reports, roll back on timeout.
func (c *Controller) handleExecute(from string, args any, reply *simnet.AsyncReply) {
	cmd := args.(ExecuteArgs)
	if c.locked {
		if r := c.run; r.from == from && r.cmd.Force == cmd.Force && slices.Equal(r.cmd.Pairs, cmd.Pairs) {
			// A duplicate of the command in flight is answered with its
			// outcome, not refused: its refusal would reach the caller first.
			r.joined = append(r.joined, reply)
			return
		}
		reply.Reply(nil, ErrFabricLocked)
		return
	}
	// If the primary microcontroller is out of reach (e.g. its host died),
	// take over with ours before planning.
	if !c.plane.Reachable(c.mcu) {
		c.plane.PowerOnMCU(c.mcu)
	}
	// Step 2: determine the switches to turn.
	var turns []fabric.SwitchSetting
	var disturbed []fabric.NodeID
	var err error
	if cmd.Force {
		turns, err = c.fab.ForcedTurns(cmd.Pairs)
		if err == nil {
			disturbed = c.fab.DisturbedBy(turns, cmd.Pairs)
		}
	} else {
		turns, err = c.fab.SwitchesToTurn(cmd.Pairs)
	}
	if err != nil {
		if errors.Is(err, fabric.ErrConflict) {
			c.conflicts++
		}
		reply.Reply(nil, err)
		return
	}
	rep := ExecuteReply{Turned: len(turns)}
	for _, d := range disturbed {
		rep.Disturbed = append(rep.Disturbed, string(d))
	}
	if len(turns) == 0 {
		c.executed++
		reply.Reply(rep, nil)
		return
	}
	// Step 1: lock the fabric for the duration of the command.
	c.locked = true
	run := &execRun{from: from, cmd: cmd}
	c.run = run
	finish := func(res any, err error) {
		c.locked, c.run = false, nil
		reply.Reply(res, err)
		for _, j := range run.joined {
			j.Reply(res, err)
		}
	}
	// Remember prior state for rollback.
	prior := make([]fabric.SwitchSetting, len(turns))
	for i, t := range turns {
		prior[i] = fabric.SwitchSetting{Switch: t.Switch, Sel: c.fab.Node(t.Switch).Sel}
	}
	// Step 3: actuate, then verify arrival of every commanded disk on its
	// target host within the verification window.
	c.plane.TurnSwitches(c.mcu, turns, func(terr error) {
		if terr != nil {
			finish(nil, terr)
			return
		}
		deadline := c.sched.Now() + verifyTimeout
		var verify func()
		verify = func() {
			ok := true
			for _, p := range cmd.Pairs {
				if !c.VisibleOn(p.Host, string(p.Disk)) {
					ok = false
					break
				}
			}
			if ok {
				c.executed++
				finish(rep, nil)
				return
			}
			if c.sched.Now() >= deadline {
				// Roll back: turn the switches to their original state
				// and report failure back to the Master (§IV-C step 3).
				c.rollbacks++
				c.plane.TurnSwitches(c.mcu, prior, func(error) {
					finish(nil, fmt.Errorf("%w after %v", ErrVerifyTimeout, verifyTimeout))
				})
				return
			}
			c.sched.FireAfter(200*time.Millisecond, verify)
		}
		verify()
	})
}

func (c *Controller) handleNodePower(from string, args any, reply *simnet.AsyncReply) {
	p := args.(NodePowerArgs)
	if !c.plane.Reachable(c.mcu) {
		c.plane.PowerOnMCU(c.mcu)
	}
	c.plane.SetPower(c.mcu, fabric.NodeID(p.Node), p.On, func(err error) {
		if err != nil {
			reply.Reply(nil, err)
			return
		}
		// Power changes alter the visible trees; resync the binding so
		// hosts observe attach/detach events.
		c.binding.Resync()
		reply.Reply(struct{}{}, nil)
	})
}
