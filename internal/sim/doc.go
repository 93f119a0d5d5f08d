// Package sim is a deterministic discrete-event simulation (DES) kernel.
//
// It provides a virtual clock, an event queue ordered by (time, sequence)
// that keeps the events of each virtual time in one FIFO instant and
// heap-orders only the distinct instants, coroutine-backed simulated
// processes (iter.Pull) in the style of process-oriented simulators (SimPy,
// CSIM), FIFO resources, mailboxes, and a seeded random number generator.
// Exactly one runner — either the scheduler or a single simulated process —
// runs at any instant, so simulations are fully deterministic for a given
// seed and program.
//
// Each simulated operation is written once, as an event chain of callbacks
// that allocates no process; a process runs the same chain by blocking on it
// with Proc.Await. A process blocks in exactly two ways: Sleep, for a span
// of virtual time, and Await, for an event chain such as a resource claim
// (Resource.AcquireThen) or a receive (Mailbox.GetThen). All other substrate
// packages (network, disks, file systems, MPI) are built on this kernel;
// virtual time is an int64 nanosecond count.
package sim
