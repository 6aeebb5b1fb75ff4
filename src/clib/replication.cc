#include "clib/replication.hh"

#include <algorithm>
#include <optional>
#include <tuple>
#include <utility>

#include "sim/logging.hh"

namespace clio {

ReplicatedRegion *
ReplicaRegistry::find(std::uint64_t id) const
{
    for (const Entry &e : entries_) {
        if (e.id == id)
            return e.region;
    }
    return nullptr;
}

ReplicatedRegion::ReplicatedRegion(ClioClient &client, std::uint64_t size,
                                   NodeId primary_mn, NodeId backup_mn)
    : client_(client), size_(size), primary_mn_(primary_mn),
      backup_mn_(backup_mn), resync_cq_(client.cnode().eventQueue())
{
    clio_assert(primary_mn != backup_mn,
                "replicas must live on distinct MNs");
    SubmissionBatch batch(client_);
    const std::size_t p =
        batch.alloc(size, kPermReadWrite, false, primary_mn);
    const std::size_t b =
        batch.alloc(size, kPermReadWrite, false, backup_mn);
    const BatchOutcome out = batch.submitAndWait();
    if (out.completions[p].ok())
        primary_ = out.completions[p].value;
    if (out.completions[b].ok())
        backup_ = out.completions[b].value;

    resync_cq_.setDrainHook([this] { pumpResync(); });
    if (ok())
        client_.replicaRegistry().addRegion(this);
}

ReplicatedRegion::~ReplicatedRegion()
{
    client_.replicaRegistry().removeRegion(this);
    // Destroying mid-resync trips resync_cq_'s outstanding-watch
    // assertion — loud, by design: the controller must abort or finish
    // a resync before the region goes away.
}

Status
ReplicatedRegion::write(std::uint64_t offset, const void *src,
                        std::uint64_t len)
{
    clio_assert(offset + len <= size_, "replicated write out of range");
    // A live replica's answer: any failure but a transport one, which
    // resends the leg until it lands or its replica is declared dead.
    const auto answered = [](Status st) {
        return st != Status::kOk && st != Status::kTimeout &&
               st != Status::kRetryExceeded && st != Status::kEpochFenced;
    };
    // A slot's leg follows the copy in the slot (a resync may swap a new
    // one in mid-write), with one dedup key for every attempt on it.
    struct Leg
    {
        VirtAddr va = 0;
        ReqId key = 0;
        bool landed = false;
        std::optional<std::size_t> op; // its index in this pass's batch
    };
    Leg p, b;
    const auto owed = [](const Leg &leg, VirtAddr va, bool alive) {
        return alive && !(leg.va == va && leg.landed);
    };
    for (bool resend = false; owed(p, primary_, primary_alive_) ||
                              owed(b, backup_, backup_alive_);
         resend = true) {
        if (!client_.cnode().alive() ||
            (resend && client_.cnode().declaredDead()))
            return Status::kTimeout; // its process or its lease is gone
        if (resync_.reading && offset < resync_.cur_off + resync_.cur_len &&
            resync_.cur_off < offset + len) {
            // The chunk's copy-write will carry bytes read before this
            // write; hold the write until that copy-write is issued, so
            // the mirror below queues behind it (see file docs).
            const bool ok = client_.cnode().eventQueue().runUntil(
                [this] { return !resync_.reading; });
            clio_assert(ok, "simulation drained with a resync read in flight");
        }
        // Write-all in one doorbell: both replica writes leave together.
        SubmissionBatch batch(client_);
        const auto stage = [&](Leg &leg, VirtAddr va, bool alive) {
            leg.op.reset();
            if (!owed(leg, va, alive))
                return;
            if (leg.va != va)
                leg = {va, client_.cnode().newReqId(), false, {}};
            leg.op = batch.write(va + offset, src, len, leg.key);
        };
        stage(p, primary_, primary_alive_);
        stage(b, backup_, backup_alive_);
        if (batch.empty())
            continue; // the hold saw the owed replicas declared dead
        if (resync_.active && !resync_.aborting &&
            resync_.target_va != 0 && offset < resync_.read_issued_end) {
            // Mirror into the resync target: its copied (or
            // read-issued) prefix would otherwise go stale. Every chunk
            // this overlaps has its copy-write issued, and T2
            // serializes the mirror after it (WAW on the target VA), so
            // the target converges to the latest data; writes entirely
            // beyond the issued prefix are picked up by the chunk reads
            // themselves. The mirror's own completion does not gate the
            // foreground write's success.
            batch.write(resync_.target_va + offset, src, len);
        }
        const BatchOutcome out = batch.submitAndWait();
        // A leg lands, or a live copy still in its slot fails the write.
        for (auto [leg, va, alive] : {std::tie(p, primary_, primary_alive_),
                                      std::tie(b, backup_, backup_alive_)}) {
            if (!leg.op)
                continue;
            const Status st = out.completions[*leg.op].status;
            leg.landed = st == Status::kOk;
            if (answered(st) && alive && leg.va == va)
                return st;
        }
    }
    return (p.landed || b.landed) ? Status::kOk : Status::kRetryExceeded;
}

Status
ReplicatedRegion::read(std::uint64_t offset, void *dst, std::uint64_t len)
{
    clio_assert(offset + len <= size_, "replicated read out of range");
    if (primary_alive_) {
        const Status st = client_.rread(primary_ + offset, dst, len);
        if (st == Status::kOk || !backup_alive_)
            return st;
        // Primary unreachable or confused: fail over, marking nothing.
    }
    if (!backup_alive_)
        return Status::kRetryExceeded;
    failovers_++;
    return client_.rread(backup_ + offset, dst, len);
}

Status
ReplicatedRegion::heal(NodeId replacement_mn)
{
    if (resync_.active)
        return Status::kRetryExceeded; // controller resync owns the slot
    if (primary_alive_ && backup_alive_)
        return Status::kOk; // nothing to heal
    if (bothDead())
        return Status::kRetryExceeded; // no surviving copy
    const VirtAddr survivor = primary_alive_ ? primary_ : backup_;
    clio_assert(client_.mnFor(survivor) != replacement_mn,
                "replacement replica must not share the survivor's MN");

    // The controller's resync, pumped to completion: writes issued
    // meanwhile mirror into the copy, and the controller sees the slot
    // taken instead of starting a second copy.
    bool finished = false;
    Status result = Status::kOk;
    const bool started =
        beginResync(replacement_mn, [&finished, &result](Status st) {
            finished = true;
            result = st;
        });
    clio_assert(started, "heal: resync refused on a degraded region");
    const bool ok = client_.cnode().eventQueue().runUntil(
        [&finished] { return finished; });
    clio_assert(ok, "heal: simulation drained mid-resync");
    return result;
}

void
ReplicatedRegion::markMnDead(NodeId mn)
{
    if (primary_mn_ == mn)
        primary_alive_ = false;
    if (backup_mn_ == mn)
        backup_alive_ = false;
    // An active resync whose target just died, or whose source (the
    // survivor) did, cannot complete: fail it at its next completion
    // event (exactly one op is always in flight while active).
    if (resync_.active && (resync_.target_mn == mn || bothDead()))
        resync_.aborting = true;
}

bool
ReplicatedRegion::beginResync(NodeId replacement_mn,
                              std::function<void(Status)> done)
{
    if (resync_.active || !degraded() || bothDead())
        return false;
    const VirtAddr survivor = primary_alive_ ? primary_ : backup_;
    if (client_.mnFor(survivor) == replacement_mn)
        return false;
    resync_.active = true;
    resync_.aborting = false;
    resync_.target_mn = replacement_mn;
    resync_.target_va = 0;
    resync_.chunk = std::max<std::uint64_t>(
        1, client_.cnode().config().clib.resync_chunk_bytes);
    resync_.read_issued_end = 0;
    resync_.cur_off = 0;
    resync_.cur_len = 0;
    resync_.done = std::move(done);
    resync_cq_.watch(client_.rallocAsync(size_, kPermReadWrite, false,
                                         replacement_mn),
                     kTagAlloc);
    return true;
}

void
ReplicatedRegion::pumpResync()
{
    // Exactly one resync op is in flight at a time, so one completion
    // is expected per pump; the loop also drains stale entries that
    // land after an abort.
    for (Completion &c : resync_cq_.poll(16)) {
        if (!resync_.active)
            continue; // stale completion after an abort finished
        if (resync_.aborting) {
            finishResync(Status::kTimeout); // an MN was declared dead
            continue;
        }
        switch (c.tag) {
          case kTagAlloc:
            if (!c.ok()) {
                finishResync(c.status);
                break;
            }
            resync_.target_va = c.value;
            issueResyncRead();
            break;
          case kTagRead:
            resync_.reading = false;
            if (!c.ok()) {
                // The survivor did not answer: abort, and free the
                // half-copied target (its MN was not declared dead, or
                // `aborting` would be set). Whether the survivor's MN is
                // dead is the controller's call, not this read's.
                client_.rfreeAsync(resync_.target_va);
                finishResync(Status::kTimeout);
                break;
            }
            resync_cq_.watch(
                client_.rwriteAsync(resync_.target_va + resync_.cur_off,
                                    resync_.buf.data(), resync_.cur_len),
                kTagWrite);
            break;
          case kTagWrite:
            if (!c.ok()) {
                finishResync(c.status); // target died mid-copy
                break;
            }
            issueResyncRead();
            break;
          default:
            break;
        }
    }
}

void
ReplicatedRegion::issueResyncRead()
{
    if (resync_.read_issued_end >= size_) {
        // The last copy-write landed, and every foreground write that
        // raced the copy mirrored into the target: swap it into the
        // dead slot — the region is fully redundant again.
        if (!primary_alive_) {
            primary_ = resync_.target_va;
            primary_mn_ = resync_.target_mn;
            primary_alive_ = true;
        } else {
            backup_ = resync_.target_va;
            backup_mn_ = resync_.target_mn;
            backup_alive_ = true;
        }
        resyncs_++;
        finishResync(Status::kOk);
        return;
    }
    const VirtAddr survivor = primary_alive_ ? primary_ : backup_;
    resync_.cur_off = resync_.read_issued_end;
    resync_.cur_len = std::min(resync_.chunk, size_ - resync_.cur_off);
    resync_.read_issued_end = resync_.cur_off + resync_.cur_len;
    resync_.reading = true;
    resync_.buf.resize(resync_.cur_len);
    resync_cq_.watch(client_.rreadAsync(survivor + resync_.cur_off,
                                        resync_.buf.data(),
                                        resync_.cur_len),
                     kTagRead);
}

void
ReplicatedRegion::finishResync(Status status)
{
    // A failed chunk read freed the target VA already (pumpResync).
    // On any other failure it is abandoned: its board is dead or did
    // not answer, or the survivor died and left the region bothDead.
    resync_.active = false;
    resync_.aborting = false;
    resync_.reading = false;
    resync_.target_mn = 0;
    resync_.target_va = 0;
    auto done = std::move(resync_.done);
    resync_.done = nullptr;
    if (done)
        done(status);
}

void
ReplicatedRegion::destroy()
{
    clio_assert(!resync_.active,
                "destroying a region with a resync in flight");
    client_.replicaRegistry().removeRegion(this);
    if (primary_) {
        client_.rfree(primary_);
        primary_ = 0;
    }
    if (backup_) {
        client_.rfree(backup_);
        backup_ = 0;
    }
}

} // namespace clio
