//===--- TaskSpawner.h - Executor-or-context task submission ----*- C++ -*-===//
//
// Part of m2c, a concurrent Modula-2+ compiler reproducing Wortman & Junkin,
// "A Concurrent Compiler for Modula-2+" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tasks are created both outside any task — while a run is being wired
/// up, or on a request thread of a serving executor — and from inside
/// running tasks (the Splitter and Importer start new streams mid-run).
/// The first kind must go to the executor directly; the second must go
/// through the current ExecContext so each executor can apply its own
/// scheduling policy and request-tag inheritance.  TaskSpawner routes
/// both by asking the context, and is shared by every pipeline and
/// interface stream of one run — a build session submits the task graphs
/// of many modules through one spawner onto one executor.
///
//===----------------------------------------------------------------------===//

#ifndef M2C_BUILD_TASKSPAWNER_H
#define M2C_BUILD_TASKSPAWNER_H

#include "sched/ExecContext.h"
#include "sched/Executor.h"

#include <memory>

namespace m2c::build {

/// Routes task submission to the executor from outside a task and to
/// the current context from inside one.
class TaskSpawner {
public:
  /// \p Tag is the executor request this spawner submits for, stamped on
  /// every untagged task; null for one-shot runs and for service-lifetime
  /// work such as shared interface streams.
  explicit TaskSpawner(sched::Executor &Exec,
                       std::shared_ptr<void> Tag = nullptr)
      : Exec(Exec), RequestTag(std::move(Tag)) {}
  TaskSpawner(const TaskSpawner &) = delete;
  TaskSpawner &operator=(const TaskSpawner &) = delete;

  void spawn(sched::TaskPtr T) {
    bool InTask = sched::ctx().isTaskContext();
    if (!T->requestTag()) {
      if (RequestTag) {
        T->setRequestTag(RequestTag);
      } else if (!InTask) {
        // A spawner with no tag of its own (the shared interface pool's)
        // submitting from a request thread has no spawning task to
        // inherit a tag from either; charge the task to the request the
        // thread is setting up (RequestTagScope) so awaitRequest() counts
        // and waits for it.
        if (const std::shared_ptr<void> &Tag = threadRequestTag())
          T->setRequestTag(Tag);
      }
    }
    // Outside a task the thread-local context is a plain
    // SequentialContext that would queue the task and never run it.
    if (InTask)
      sched::ctx().spawn(std::move(T));
    else
      Exec.spawn(std::move(T));
  }

  /// RAII: marks the calling thread as wiring tasks for request \p Tag
  /// while it runs setup code outside any task context.  A BuildSession
  /// installs one between openRequest() and awaitRequest(); shared-pool
  /// spawners that carry no request tag of their own stamp this tag on
  /// tasks first-touched from this thread (e.g. an interface stream
  /// started while the request's pipelines are being wired), so
  /// awaitRequest() waits for them too.
  class RequestTagScope {
  public:
    explicit RequestTagScope(std::shared_ptr<void> Tag)
        : Prev(std::move(threadRequestTag())) {
      threadRequestTag() = std::move(Tag);
    }
    ~RequestTagScope() { threadRequestTag() = std::move(Prev); }
    RequestTagScope(const RequestTagScope &) = delete;
    RequestTagScope &operator=(const RequestTagScope &) = delete;

  private:
    std::shared_ptr<void> Prev;
  };

private:
  /// The request the calling thread is currently setting up, null
  /// otherwise.  Function-local so the header needs no out-of-line
  /// thread_local definition.
  static std::shared_ptr<void> &threadRequestTag() {
    thread_local std::shared_ptr<void> Tag;
    return Tag;
  }

  sched::Executor &Exec;
  std::shared_ptr<void> RequestTag;
};

} // namespace m2c::build

#endif // M2C_BUILD_TASKSPAWNER_H
