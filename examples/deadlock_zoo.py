#!/usr/bin/env python3
"""A zoo of partial deadlocks: one minimal scenario per `repro vet` rule.

Part 1 is a static-analysis corpus: each ``zoo_*`` goroutine body below
is the smallest program that trips exactly one rule of the vet rule
catalog (docs/STATIC_ANALYSIS.md), annotated with the finding it is
expected to produce.  CI runs ``repro vet examples/ --expect`` so the
analyzer must reproduce these expectations exactly — no more, no less.

Part 2 (``__main__``) is the dynamic counterpart: a miniature Table 1
over the full microbenchmark corpus, including the famous rows:
etcd/7443 (invisible below 10 cores), grpc/3017 (needs parallelism),
moby/27282 (the two-core dip).

Run:  python examples/deadlock_zoo.py [runs]
"""

import sys

from repro.experiments import format_table1, run_table1
from repro.microbench import all_benchmarks, total_leaky_sites
from repro.runtime.instructions import (
    Close,
    CondWait,
    GetGlobal,
    Go,
    Lock,
    MakeChan,
    NewCond,
    NewMutex,
    NewSema,
    NewWaitGroup,
    Recv,
    RecvCase,
    Select,
    SemAcquire,
    Send,
    Unlock,
    WgAdd,
    WgWait,
)

# --- Part 1: the rule zoo ---------------------------------------------------
#
# Helper bodies (spawned by the scenarios, never roots themselves).


def _sender(ch):
    yield Send(ch, 1)


def _recv_once(ch):
    yield Recv(ch)


def _impatient(ch):
    # Polls once and moves on: the matching send can lose the race.
    yield Select([RecvCase(ch)], default=True)


def _produce_two(ch):
    yield Send(ch, 1)
    yield Send(ch, 2)


def _closer_sometimes(ch):
    mode = yield GetGlobal("zoo.mode")
    if mode:
        yield Close(ch)


def _lock_hog(mu):
    yield Lock(mu)  # never unlocks


# One root scenario per rule.


# vet: expect send-no-recv
def zoo_send_no_recv():
    ch = yield MakeChan(0, label="zoo.send-no-recv")
    yield Go(_sender, ch)


# vet: expect send-overflow
def zoo_send_overflow():
    ch = yield MakeChan(1, label="zoo.send-overflow")
    yield Go(_recv_once, ch)
    for value in (1, 2, 3):  # capacity 1 + one receive < three sends
        yield Send(ch, value)


# vet: expect send-may-drop
def zoo_send_may_drop():
    ch = yield MakeChan(0, label="zoo.send-may-drop")
    yield Go(_impatient, ch)
    yield Send(ch, 1)  # leaks whenever the default case wins the race


# vet: expect recv-no-send
def zoo_recv_no_send():
    ch = yield MakeChan(0, label="zoo.recv-no-send")
    yield Recv(ch)


# vet: expect recv-no-close
def zoo_recv_no_close():
    ch = yield MakeChan(0, label="zoo.recv-no-close")
    yield Go(_produce_two, ch)
    while True:  # drains forever; nobody ever closes
        yield Recv(ch)


# vet: expect recv-may-starve
def zoo_recv_may_starve():
    ch = yield MakeChan(0, label="zoo.recv-may-starve")
    yield Go(_closer_sometimes, ch)
    yield Recv(ch)  # starves when the closer takes the other branch


# vet: expect select-dead
def zoo_select_dead():
    a = yield MakeChan(0, label="zoo.select-dead.a")
    b = yield MakeChan(0, label="zoo.select-dead.b")
    yield Select([RecvCase(a), RecvCase(b)])  # no senders anywhere


# vet: expect wg-imbalance
def zoo_wg_imbalance():
    wg = yield NewWaitGroup()
    yield WgAdd(wg, 1)
    yield WgWait(wg)  # no goroutine ever calls WgDone


# vet: expect mutex-held-forever
def zoo_mutex_held_forever():
    mu = yield NewMutex(label="zoo.mu")
    yield Go(_lock_hog, mu)
    yield Lock(mu)  # contends with the hog, which never releases
    yield Unlock(mu)


# vet: expect double-lock
def zoo_double_lock():
    mu = yield NewMutex(label="zoo.double")
    yield Lock(mu)
    yield Lock(mu)  # self-deadlock: Go mutexes are not reentrant


# vet: expect cond-no-signal
def zoo_cond_no_signal():
    mu = yield NewMutex(label="zoo.cond.mu")
    cv = yield NewCond(mu)
    yield Lock(mu)
    yield CondWait(cv)  # nobody signals or broadcasts
    yield Unlock(mu)


# vet: expect sema-no-release
def zoo_sema_no_release():
    sem = yield NewSema(0)
    yield SemAcquire(sem)  # zero permits, zero releases


# vet: expect nil-chan-op
def zoo_nil_chan():
    ch = None  # the zero value of a channel variable
    yield Send(ch, 1)  # nil-channel send blocks forever


# vet: expect unresolved
def zoo_unresolved():
    a = yield MakeChan(0, label="zoo.unresolved.a")
    b = yield MakeChan(0, label="zoo.unresolved.b")
    chans = [a, b]
    index = yield GetGlobal("zoo.pick")
    yield Send(chans[index], 1)  # dynamic channel choice: vet gives up


# vet: clean
def zoo_clean():
    ch = yield MakeChan(0, label="zoo.clean")
    yield Go(_recv_once, ch)
    yield Send(ch, 1)  # exactly one matching receive: no finding


def zoo_waived():
    ch = yield MakeChan(0, label="zoo.waived")
    yield Send(ch, 1)  # vet: ok send-no-recv inline-waiver demo


# --- Part 2: the dynamic corpus ---------------------------------------------


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    benches = all_benchmarks()
    print(f"corpus: {len(benches)} benchmarks, {total_leaky_sites()} "
          f"annotated leaky go instructions")
    print(f"running each {runs}x under GOMAXPROCS in {{1, 2, 4, 10}}")

    result = run_table1(runs=runs)
    print(format_table1(result))

    assert result.aggregated() > 0.85
    print(f"\naggregate detection rate: {result.aggregated():.2%} "
          f"(paper: 94.75%)")
