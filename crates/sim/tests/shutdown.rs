//! `Sim::shutdown`: the owner's end of a run.
//!
//! Tasks and timers hold `Sim` clones, so a simulation whose outside
//! handles are all dropped still keeps itself alive through its own task
//! slab and timer wheel. These tests pin what `shutdown` does about it:
//! everything pending is dropped (also what dropping it spawns or wakes),
//! it reports how much, and it refuses to run from inside the executor.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use cord_sim::sync::channel;
use cord_sim::{Sim, SimDuration, Teardown};

/// A task that holds a `Sim` clone and a marker and sleeps forever.
fn spawn_sleeper(sim: &Sim, marker: Rc<()>) {
    let s = sim.clone();
    sim.spawn(async move {
        let _marker = marker;
        loop {
            s.sleep(SimDuration::from_us(1)).await;
        }
    });
}

#[test]
fn shutdown_breaks_the_cycle_through_a_sleeping_task() {
    let sim = Sim::new();
    let marker = Rc::new(());
    spawn_sleeper(&sim, Rc::clone(&marker));
    let s = sim.clone();
    // Stop mid-sleep, so the sleeper's wake-up is a pending timer.
    sim.block_on(async move { s.sleep(SimDuration::from_ns(10_500)).await });
    assert_eq!(Rc::strong_count(&marker), 2, "the task still holds it");

    let (now, stats) = (sim.now(), sim.stats());
    let dropped = sim.shutdown();
    assert_eq!(
        dropped,
        Teardown {
            tasks: 1,
            timers: 1
        }
    );
    assert_eq!(
        Rc::strong_count(&marker),
        1,
        "the task and its Sim clone are gone"
    );
    assert_eq!(sim.live_tasks(), 0);
    assert_eq!(
        (sim.now(), sim.stats()),
        (now, stats),
        "clock and counters kept"
    );

    // The simulation stays usable: new work runs from where the clock was.
    let s = sim.clone();
    let t = sim.block_on(async move {
        s.sleep(SimDuration::from_us(5)).await;
        s.now()
    });
    assert_eq!(t, now + SimDuration::from_us(5));
}

/// Spawns a sleeper holding its marker when dropped, so the sweep that
/// drops it has a second round to do.
struct SpawnOnDrop(Sim, Rc<()>);

impl Drop for SpawnOnDrop {
    fn drop(&mut self) {
        spawn_sleeper(&self.0, Rc::clone(&self.1));
    }
}

#[test]
fn shutdown_sweeps_until_dropping_wakes_and_spawns_nothing_more() {
    let sim = Sim::new();
    let marker = Rc::new(());
    let (tx, rx) = channel::<u32>();
    // Holds a pending sleep and the only sender: dropping it cancels the
    // sleep into the wheel and wakes the receiver below.
    let s = sim.clone();
    sim.spawn(async move {
        let _tx = tx;
        s.sleep(SimDuration::from_ms(1)).await;
    });
    sim.spawn(async move {
        let _ = rx.recv().await;
    });
    let (s, guard) = (sim.clone(), SpawnOnDrop(sim.clone(), Rc::clone(&marker)));
    sim.spawn(async move {
        let _guard = guard;
        s.sleep(SimDuration::from_ms(2)).await;
    });
    sim.block_on(async {});
    assert_eq!(sim.live_tasks(), 3);

    // Round one drops the three tasks and both sleeps; dropping the guard
    // spawns a fourth task, which round two drops before it ever ran.
    let dropped = sim.shutdown();
    assert_eq!(
        dropped,
        Teardown {
            tasks: 4,
            timers: 2
        }
    );
    assert_eq!(sim.live_tasks(), 0);
    assert_eq!(Rc::strong_count(&marker), 1);

    // No task, timer or ready entry is left: running polls and fires
    // nothing, and a second shutdown has nothing to drop.
    let (now, stats) = (sim.now(), sim.stats());
    sim.run();
    assert_eq!((sim.now(), sim.stats()), (now, stats));
    assert_eq!(sim.shutdown(), Teardown::default());
}

/// Pending forever; counts its polls and exposes its latest waker.
struct Parked {
    polls: Rc<Cell<u32>>,
    waker: Rc<RefCell<Option<Waker>>>,
}

impl Future for Parked {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.polls.set(self.polls.get() + 1);
        *self.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

#[test]
fn wakers_of_dropped_tasks_stay_stale_when_the_sim_runs_on() {
    let sim = Sim::new();
    let parked = || Parked {
        polls: Rc::default(),
        waker: Rc::default(),
    };
    let old = parked();
    let old_waker = Rc::clone(&old.waker);
    sim.spawn(old);
    sim.run();
    assert_eq!(sim.shutdown().tasks, 1);

    // The new task takes the dropped task's slot; waking the old task's
    // waker must not poll it.
    let new = parked();
    let new_polls = Rc::clone(&new.polls);
    sim.spawn(new);
    sim.run();
    assert_eq!(new_polls.get(), 1);
    old_waker.borrow().as_ref().expect("parked").wake_by_ref();
    sim.run();
    assert_eq!(
        new_polls.get(),
        1,
        "a stale waker reached the slot's new task"
    );
}

#[test]
#[should_panic(expected = "Sim::shutdown called from inside a task poll or timer callback")]
fn shutdown_inside_a_poll_panics() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.block_on(async move {
        s.shutdown();
    });
}

#[test]
#[should_panic(expected = "Sim::shutdown called from inside a task poll or timer callback")]
fn shutdown_inside_a_timer_callback_panics() {
    let sim = Sim::new();
    sim.schedule_after(SimDuration::from_us(1), |sim| {
        sim.shutdown();
    });
    sim.run();
}
