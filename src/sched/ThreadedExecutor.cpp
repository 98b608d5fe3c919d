//===--- ThreadedExecutor.cpp - Real-thread Supervisors executor ---------===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//

#include "sched/ThreadedExecutor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace m2c::sched;

Executor::~Executor() = default;
ActivitySink::~ActivitySink() = default;

ThreadedExecutor::ThreadedExecutor(unsigned Processors, CostModel Model)
    : Processors(Processors), NumShards(Processors), Model(Model),
      Shards(std::make_unique<Shard[]>(Processors)) {
  assert(Processors > 0 && "need at least one processor");
}

ThreadedExecutor::~ThreadedExecutor() { stopWorkers(); }

uint64_t ThreadedExecutor::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - RunStart)
          .count());
}

//===--- Spawning and queues ------------------------------------------------===//

void ThreadedExecutor::spawn(TaskPtr T) {
  spawnFrom(std::move(T),
            RoundRobin.fetch_add(1, std::memory_order_relaxed) % NumShards);
}

void ThreadedExecutor::spawnFrom(TaskPtr T, unsigned HomeShard) {
  assert(T && "null task");
  TotalSpawned.fetch_add(1, std::memory_order_relaxed);
  Incomplete.fetch_add(1, std::memory_order_acq_rel);
  // Request attribution (service mode): count the task against its
  // request before it can possibly run, so awaitRequest() never observes
  // a transient zero while the graph is still growing.
  if (RequestState *RS = requestOf(*T))
    RS->Incomplete.fetch_add(1, std::memory_order_acq_rel);
  if (T->prerequisites().empty()) {
    pushReady(std::move(T), HomeShard);
  } else {
    std::lock_guard<std::mutex> Lock(GateM);
    // Publish the gating intent before the Supervisor re-checks each
    // prerequisite's signaled flag: the seq_cst fence pairs with the one
    // in signal() (Dekker), so either the Supervisor sees the signal or
    // the signaler sees MayGate and takes GateM to release us.
    for (const EventPtr &E : T->prerequisites())
      if (!E->isSignaled())
        E->MayGate.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    Sup.add(std::move(T));
    drainSupervisor(HomeShard);
  }
  ensureWorkerForReadyWork();
}

void ThreadedExecutor::drainSupervisor(unsigned HomeShard) {
  while (TaskPtr Ready = Sup.popBest())
    pushReady(std::move(Ready), HomeShard);
}

void ThreadedExecutor::pushReady(TaskPtr T, unsigned HomeShard,
                                 bool BypassFairShare) {
  // Fair-share admission (service mode): while several requests are open,
  // a request at its share parks further ready tasks in its own deferred
  // queue.  Deferred tasks are invisible to ReadyCount — workers cannot
  // pop them — and re-enter here (BypassFairShare) when the request
  // releases a slot or the share rises.
  if (!BypassFairShare && Serving.load(std::memory_order_acquire)) {
    if (RequestState *RS = requestOf(*T)) {
      if (!bypassesFairShare(*T)) {
        unsigned Cap = FairShare.load(std::memory_order_acquire);
        unsigned S = RS->Slots.load(std::memory_order_relaxed);
        bool Charged = false;
        while (S < Cap)
          if (RS->Slots.compare_exchange_weak(S, S + 1,
                                              std::memory_order_acq_rel)) {
            Charged = true;
            break;
          }
        if (!Charged) {
          {
            std::lock_guard<std::mutex> Lock(RS->DeferM);
            RS->Deferred.push_back(std::move(T));
            RS->DeferredShards.push_back(HomeShard);
          }
          RS->DeferredCount.fetch_add(1, std::memory_order_release);
          CtDeferred.fetch_add(1, std::memory_order_relaxed);
          // Close the check/park race: if every counted task released its
          // slot while we were parking, nobody else will admit us.
          admitDeferred(*RS);
          return;
        }
        T->markSlotHeld();
      }
    }
  }
  // Producer-class tasks (Lexor/Splitter/Importer) go to the global queue
  // every pop consults first.  This preserves the baseline's
  // producers-before-consumers admission order: a consumer stuck in a
  // barrier wait holds its token, so a ready Lexor buried in an
  // unscanned shard could otherwise starve behind a full token pool.
  Shard &S =
      isProducerClass(T->taskClass()) ? ProducerQueue : Shards[HomeShard];
  unsigned Class = static_cast<unsigned>(T->taskClass());
  {
    std::lock_guard<std::mutex> Lock(S.M);
    S.ByClass[Class].push_back(std::move(T));
  }
  S.Count.fetch_add(1, std::memory_order_release);
  ReadyCount.fetch_add(1, std::memory_order_release);
  if (IdleWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_one();
  }
}

TaskPtr ThreadedExecutor::popFromShard(Shard &S) {
  std::lock_guard<std::mutex> Lock(S.M);
  for (unsigned C = 0; C < NumTaskClasses; ++C) {
    auto &Q = S.ByClass[C];
    if (Q.empty())
      continue;
    auto Best = Q.begin();
    // Within the long code-generation class, heavier tasks run first
    // ("code is generated for long procedures before short ones").
    if (C == static_cast<unsigned>(TaskClass::LongStmtCodeGen))
      for (auto It = std::next(Q.begin()), End = Q.end(); It != End; ++It)
        if ((*It)->weight() > (*Best)->weight())
          Best = It;
    TaskPtr T = std::move(*Best);
    Q.erase(Best);
    S.Count.fetch_sub(1, std::memory_order_release);
    ReadyCount.fetch_sub(1, std::memory_order_release);
    if (T->isBoosted()) {
      unsigned H = BoostedHint.load(std::memory_order_relaxed);
      while (H > 0 && !BoostedHint.compare_exchange_weak(
                          H, H - 1, std::memory_order_relaxed)) {
      }
    }
    return T;
  }
  return nullptr;
}

TaskPtr ThreadedExecutor::popBoosted() {
  auto ScanShard = [this](Shard &S) -> TaskPtr {
    if (S.Count.load(std::memory_order_acquire) == 0)
      return nullptr;
    std::lock_guard<std::mutex> Lock(S.M);
    for (unsigned C = 0; C < NumTaskClasses; ++C) {
      auto &Q = S.ByClass[C];
      for (auto It = Q.begin(), End = Q.end(); It != End; ++It) {
        if (!(*It)->isBoosted())
          continue;
        TaskPtr T = std::move(*It);
        Q.erase(It);
        S.Count.fetch_sub(1, std::memory_order_release);
        ReadyCount.fetch_sub(1, std::memory_order_release);
        return T;
      }
    }
    return nullptr;
  };
  TaskPtr T = ScanShard(ProducerQueue);
  for (unsigned I = 0; !T && I < NumShards; ++I)
    T = ScanShard(Shards[I]);
  // Decrement the hint whether or not the scan found a task: a miss means
  // the boosted task already left the queues (popped normally, started,
  // or still gated), and a stale hint would make every pop re-scan.
  unsigned H = BoostedHint.load(std::memory_order_relaxed);
  while (H > 0 &&
         !BoostedHint.compare_exchange_weak(H, H - 1,
                                            std::memory_order_relaxed)) {
  }
  return T;
}

TaskPtr ThreadedExecutor::tryPop(unsigned HomeShard) {
  if (BoostedHint.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popBoosted())
      return T;
  if (ProducerQueue.Count.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popFromShard(ProducerQueue))
      return T;
  if (Shards[HomeShard].Count.load(std::memory_order_acquire) > 0)
    if (TaskPtr T = popFromShard(Shards[HomeShard]))
      return T;
  // Steal: scan victim shards starting after our own.
  for (unsigned I = 1; I < NumShards; ++I) {
    Shard &Victim = Shards[(HomeShard + I) % NumShards];
    if (Victim.Count.load(std::memory_order_acquire) == 0)
      continue;
    if (TaskPtr T = popFromShard(Victim)) {
      CtSteals.fetch_add(1, std::memory_order_relaxed);
      return T;
    }
  }
  return nullptr;
}

//===--- Service mode -------------------------------------------------------===//

void ThreadedExecutor::recomputeFairShare() {
  size_t N = OpenRequests.size();
  FairShare.store(N <= 1 ? ~0u
                         : std::max(1u, Processors / static_cast<unsigned>(N)),
                  std::memory_order_release);
}

void ThreadedExecutor::admitDeferred(RequestState &RS) {
  while (RS.DeferredCount.load(std::memory_order_acquire) > 0) {
    // Take a slot first; a deferred task re-enters the ready queues
    // already counted, so admission is self-limiting.
    unsigned Cap = FairShare.load(std::memory_order_acquire);
    unsigned S = RS.Slots.load(std::memory_order_relaxed);
    bool Charged = false;
    while (S < Cap)
      if (RS.Slots.compare_exchange_weak(S, S + 1,
                                         std::memory_order_acq_rel)) {
        Charged = true;
        break;
      }
    if (!Charged)
      return;
    TaskPtr T;
    unsigned Shard = 0;
    {
      std::lock_guard<std::mutex> Lock(RS.DeferM);
      if (!RS.Deferred.empty()) {
        T = std::move(RS.Deferred.front());
        RS.Deferred.pop_front();
        Shard = RS.DeferredShards.front();
        RS.DeferredShards.pop_front();
      }
    }
    if (!T) { // Raced with another admitter; hand the slot back.
      RS.Slots.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    RS.DeferredCount.fetch_sub(1, std::memory_order_release);
    T->markSlotHeld();
    pushReady(std::move(T), Shard, /*BypassFairShare=*/true);
  }
}

void ThreadedExecutor::releaseRequestSlot(Task &T) {
  RequestState *RS = requestOf(T);
  if (!RS || !T.holdsSlot() || !T.markSlotReleased())
    return;
  RS->Slots.fetch_sub(1, std::memory_order_acq_rel);
  if (RS->DeferredCount.load(std::memory_order_acquire) > 0)
    admitDeferred(*RS);
}

void ThreadedExecutor::finishRequestTask(const std::shared_ptr<void> &Tag) {
  auto *RS = static_cast<RequestState *>(Tag.get());
  if (RS->Incomplete.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> Lock(ReqDoneM);
    ReqDoneCv.notify_all();
  }
}

void ThreadedExecutor::startService() {
  Serving.store(true, std::memory_order_release);
  startWorkers();
}

void ThreadedExecutor::stopService() {
  if (!Serving.exchange(false, std::memory_order_acq_rel))
    return;
  stopWorkers();
}

std::shared_ptr<void> ThreadedExecutor::openRequest() {
  auto RS = std::make_shared<RequestState>();
  {
    std::lock_guard<std::mutex> Lock(ReqM);
    OpenRequests.push_back(RS);
    recomputeFairShare();
  }
  CtRequestsOpened.fetch_add(1, std::memory_order_relaxed);
  return RS;
}

void ThreadedExecutor::awaitRequest(const std::shared_ptr<void> &Tag) {
  auto *RS = static_cast<RequestState *>(Tag.get());
  std::unique_lock<std::mutex> Lock(ReqDoneM);
  // finishRequestTask() notifies under ReqDoneM after the decrement, and
  // the predicate re-checks under the same lock, so wakeups cannot be
  // lost; the timeout is a backstop.
  while (RS->Incomplete.load(std::memory_order_acquire) != 0)
    ReqDoneCv.wait_for(Lock, std::chrono::milliseconds(50));
}

void ThreadedExecutor::closeRequest(const std::shared_ptr<void> &Tag) {
  std::vector<std::shared_ptr<RequestState>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(ReqM);
    for (auto It = OpenRequests.begin(); It != OpenRequests.end(); ++It)
      if (It->get() == Tag.get()) {
        OpenRequests.erase(It);
        break;
      }
    recomputeFairShare();
    Remaining = OpenRequests;
  }
  CtRequestsClosed.fetch_add(1, std::memory_order_relaxed);
  // The share just rose for everyone still open; and drain any stragglers
  // of the closed request itself (empty when the caller awaited first, as
  // the contract requires).
  admitDeferred(*static_cast<RequestState *>(Tag.get()));
  for (const std::shared_ptr<RequestState> &RS : Remaining)
    admitDeferred(*RS);
}

//===--- Tokens and worker lifecycle ----------------------------------------===//

bool ThreadedExecutor::tryAcquireToken() {
  unsigned A = Active.load(std::memory_order_relaxed);
  while (A < Processors)
    if (Active.compare_exchange_weak(A, A + 1, std::memory_order_acquire))
      return true;
  return false;
}

void ThreadedExecutor::releaseToken() {
  Active.fetch_sub(1, std::memory_order_acq_rel);
  // Prefer handing the token to a resumed task over waking a fresh
  // worker; resumers block inside their task and cannot make progress any
  // other way.
  if (TokenWaiters.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(TokenM);
    TokenCv.notify_one();
    return;
  }
  if (ReadyCount.load(std::memory_order_acquire) > 0 &&
      IdleWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_one();
  }
}

void ThreadedExecutor::acquireTokenBlocking() {
  while (!tryAcquireToken()) {
    std::unique_lock<std::mutex> Lock(TokenM);
    TokenWaiters.fetch_add(1, std::memory_order_release);
    // The timeout is a lost-wakeup backstop only; releaseToken() notifies
    // under TokenM whenever waiters exist.
    TokenCv.wait_for(Lock, std::chrono::milliseconds(10), [this] {
      return Active.load(std::memory_order_acquire) < Processors ||
             ShuttingDown.load(std::memory_order_acquire);
    });
    TokenWaiters.fetch_sub(1, std::memory_order_release);
    if (ShuttingDown.load(std::memory_order_acquire))
      return;
  }
}

void ThreadedExecutor::ensureWorkerForReadyWork() {
  if (!Started.load(std::memory_order_acquire) ||
      ShuttingDown.load(std::memory_order_acquire))
    return;
  if (ReadyCount.load(std::memory_order_acquire) == 0 ||
      Active.load(std::memory_order_acquire) >= Processors)
    return;
  if (IdleWorkers.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> Lock(IdleM);
    IdleCv.notify_one();
    return;
  }
  // Ready task, free token, nobody parked: every live worker is running
  // or blocked in a wait, so a new OS thread is needed (the paper's
  // run-another-task workaround realized by growing the thread pool).
  std::lock_guard<std::mutex> Lock(WorkersM);
  if (ShuttingDown.load(std::memory_order_acquire))
    return;
  if (Workers.size() >=
      Processors + Blocked.load(std::memory_order_acquire))
    return;
  unsigned Id = static_cast<unsigned>(Workers.size());
  Workers.emplace_back([this, Id] { workerMain(Id); });
  CtWorkersSpawned.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedExecutor::startWorkers() {
  assert(!Started.load(std::memory_order_acquire) &&
         "executor already running");
  RunStart = std::chrono::steady_clock::now();
  Started.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(WorkersM);
  for (unsigned I = 0; I < Processors; ++I) {
    unsigned Id = static_cast<unsigned>(Workers.size());
    Workers.emplace_back([this, Id] { workerMain(Id); });
  }
}

void ThreadedExecutor::stopWorkers() {
  ShuttingDown.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Idle(IdleM);
    IdleCv.notify_all();
  }
  {
    std::lock_guard<std::mutex> Token(TokenM);
    TokenCv.notify_all();
  }
  std::vector<std::thread> Done;
  {
    std::lock_guard<std::mutex> W(WorkersM);
    Done.swap(Workers);
  }
  for (std::thread &W : Done)
    if (W.joinable())
      W.join();
  ShuttingDown.store(false, std::memory_order_release);
  Started.store(false, std::memory_order_release);
  ElapsedNs = nowNs();
  flushStats();
}

//===--- Main loops ---------------------------------------------------------===//

void ThreadedExecutor::run() {
  startWorkers();

  auto Quiescent = [this] {
    return Incomplete.load(std::memory_order_acquire) != 0 &&
           Active.load(std::memory_order_acquire) == 0 &&
           ReadyCount.load(std::memory_order_acquire) == 0;
  };
  std::unique_lock<std::mutex> Lock(DoneM);
  while (Incomplete.load(std::memory_order_acquire) != 0) {
    DoneCv.wait_for(Lock, std::chrono::milliseconds(100));
    // Deadlock check: every incomplete task is blocked on a handled event
    // nobody can signal.
    if (Quiescent()) {
      // Re-verify after a grace period to avoid racing task handoffs.
      DoneCv.wait_for(Lock, std::chrono::milliseconds(200));
      if (Quiescent()) {
        size_t HeldCount;
        std::vector<std::string> Report;
        {
          std::lock_guard<std::mutex> Gate(GateM);
          HeldCount = Sup.heldCount();
          Report = Sup.heldTaskReport();
        }
        std::fprintf(stderr,
                     "m2c: deadlock: %llu tasks incomplete, none runnable "
                     "(%zu held on avoided events)\n",
                     static_cast<unsigned long long>(
                         Incomplete.load(std::memory_order_acquire)),
                     HeldCount);
        for (const std::string &Held : Report)
          std::fprintf(stderr, "  %s\n", Held.c_str());
        std::abort();
      }
    }
  }
  Lock.unlock();

  stopWorkers();
}

void ThreadedExecutor::flushStats() {
  // Flush the hot counters into the (mutex-guarded) StatisticSet once per
  // run (or on demand while serving) instead of locking it on every
  // scheduling operation.  Exchange-to-zero makes repeated flushes
  // incremental: each call folds in only what accumulated since the last.
  Stats.add("sched.tasks.total",
            TotalSpawned.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.tasks.started",
            CtStarted.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.events.signaled",
            CtSignaled.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.tasks.released_by_event",
            CtReleasedByEvent.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.waits.barrier",
            CtBarrierWaits.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.waits.barrier_ns",
            CtBarrierNs.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.waits.handled",
            CtHandledWaits.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.boosts", CtBoosts.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.steals", CtSteals.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.workers.spawned",
            CtWorkersSpawned.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.requests.opened",
            CtRequestsOpened.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.requests.closed",
            CtRequestsClosed.exchange(0, std::memory_order_acq_rel));
  Stats.add("sched.requests.deferred",
            CtDeferred.exchange(0, std::memory_order_acq_rel));
}

void ThreadedExecutor::workerMain(unsigned WorkerId) {
  unsigned Home = WorkerId % NumShards;
  while (!ShuttingDown.load(std::memory_order_acquire)) {
    TaskPtr T;
    if (ReadyCount.load(std::memory_order_acquire) > 0 &&
        tryAcquireToken()) {
      T = tryPop(Home);
      if (!T)
        releaseToken(); // Raced with another popper; requeue ourselves.
    }
    if (T) {
      std::shared_ptr<void> Tag = T->requestTag();
      runTask(std::move(T), WorkerId);
      releaseToken();
      if (Tag)
        finishRequestTask(Tag);
      if (Incomplete.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> Lock(DoneM);
        DoneCv.notify_all();
      }
      continue;
    }
    // Nothing admissible: park.  Pushers notify under IdleM after the
    // queue counters are visible, and the predicate re-checks them under
    // the same lock, so wakeups cannot be lost; the timeout is a
    // backstop.
    std::unique_lock<std::mutex> Lock(IdleM);
    IdleWorkers.fetch_add(1, std::memory_order_release);
    IdleCv.wait_for(Lock, std::chrono::milliseconds(50), [this] {
      return ShuttingDown.load(std::memory_order_acquire) ||
             (ReadyCount.load(std::memory_order_acquire) > 0 &&
              Active.load(std::memory_order_acquire) < Processors);
    });
    IdleWorkers.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadedExecutor::runTask(TaskPtr T, unsigned WorkerId) {
  bool First = T->markStarted();
  assert(First && "task started twice");
  (void)First;
  CtStarted.fetch_add(1, std::memory_order_relaxed);
  WorkerContext Ctx(*this, *T, WorkerId);
  Ctx.IntervalStartNs = nowNs();
  {
    ScopedContext Installed(Ctx);
    T->invoke();
  }
  flushInterval(Ctx);
  releaseRequestSlot(*T);
  T->markDone();
}

void ThreadedExecutor::flushInterval(WorkerContext &Ctx) {
  if (!Sink)
    return;
  uint64_t End = nowNs();
  if (End > Ctx.IntervalStartNs)
    Sink->record(Ctx.WorkerId, Ctx.T, Ctx.IntervalStartNs, End);
  Ctx.IntervalStartNs = End;
}

//===--- WorkerContext ------------------------------------------------------===//

void ThreadedExecutor::WorkerContext::charge(CostKind Kind, uint64_t Count) {
  ChargedUnits += Exec.Model.unitsFor(Kind, Count);
}

void ThreadedExecutor::WorkerContext::signal(Event &E) {
  if (!E.markSignaled(Exec.nowNs()))
    return;
  Exec.CtSignaled.fetch_add(1, std::memory_order_relaxed);
  // Wake tasks parked on this event.  The empty critical section pairs
  // with the waiters' signaled-recheck under WaitMutex: a waiter that
  // missed the flag is either inside wait() (and gets the notify) or
  // about to re-check (and sees the flag).
  {
    std::lock_guard<std::mutex> Lock(E.WaitMutex);
  }
  E.WaitCv.notify_all();
  // Dekker pairing with spawnFrom(): if a spawner is concurrently gating
  // a task on this event, either we observe MayGate here or the spawner's
  // re-check observes the signaled flag.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (E.MayGate.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> Lock(Exec.GateM);
    unsigned Released = Exec.Sup.noteSignaled(E);
    if (Released) {
      Exec.CtReleasedByEvent.fetch_add(Released, std::memory_order_relaxed);
      Exec.drainSupervisor(WorkerId % Exec.NumShards);
    }
  }
  Exec.ensureWorkerForReadyWork();
}

void ThreadedExecutor::WorkerContext::wait(Event &E) {
  if (E.isSignaled())
    return;

  // A blocked task no longer competes for processors, so its request's
  // fair-share slot is released on its first wait (once per task) and
  // not reacquired — a soft cap that keeps admission deadlock-free.
  Exec.releaseRequestSlot(T);

  if (E.kind() == EventKind::Barrier) {
    // Barrier waits hold the processor: "the worker simply waits for the
    // event to occur" (section 2.3.3).  Safe because token producers
    // (Lexor tasks) never block and are already running.
    Exec.CtBarrierWaits.fetch_add(1, std::memory_order_relaxed);
    Exec.flushInterval(*this);
    Exec.Blocked.fetch_add(1, std::memory_order_acq_rel);
    Exec.ensureWorkerForReadyWork();
    uint64_t WaitStart = Exec.nowNs();
    {
      std::unique_lock<std::mutex> Lock(E.WaitMutex);
      while (!E.isSignaled())
        E.WaitCv.wait(Lock);
    }
    Exec.Blocked.fetch_sub(1, std::memory_order_acq_rel);
    Exec.CtBarrierNs.fetch_add(Exec.nowNs() - WaitStart,
                               std::memory_order_relaxed);
    IntervalStartNs = Exec.nowNs();
    return;
  }

  assert(E.kind() == EventKind::Handled &&
         "avoided events gate task start and are never waited on mid-task");
  Exec.CtHandledWaits.fetch_add(1, std::memory_order_relaxed);
  if (Exec.Sup.boostResolver(E)) {
    Exec.CtBoosts.fetch_add(1, std::memory_order_relaxed);
    Exec.BoostedHint.fetch_add(1, std::memory_order_acq_rel);
  }

  // Release our concurrency token so another task can use the processor.
  Exec.Blocked.fetch_add(1, std::memory_order_acq_rel);
  Exec.releaseToken();
  Exec.ensureWorkerForReadyWork();
  Exec.flushInterval(*this);
  {
    std::unique_lock<std::mutex> Lock(E.WaitMutex);
    while (!E.isSignaled())
      E.WaitCv.wait(Lock);
  }
  // Reacquire a token before resuming.
  Exec.acquireTokenBlocking();
  Exec.Blocked.fetch_sub(1, std::memory_order_acq_rel);
  IntervalStartNs = Exec.nowNs();
}
