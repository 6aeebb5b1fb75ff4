/**
 * @file
 * Clio-MV (§6): a multi-version object store offload.
 *
 * Users create objects, append new versions, read a specific or the
 * latest version, and delete objects. Layout in the offload's RAS:
 *  - an object-descriptor table: {array_addr, latest_version,
 *    capacity, in_use} per object id;
 *  - a free-id list (descriptor reuse after delete);
 *  - per-object version arrays, where version v's value lives at a
 *    fixed offset (array-based versions make reading any version the
 *    same cost, the Fig. 19 observation).
 *
 * Sequential consistency per object comes from the board executing
 * offload invocations one at a time (the engine serialization point),
 * matching the paper's single-op-per-cycle argument.
 */

#ifndef CLIO_APPS_MV_STORE_HH
#define CLIO_APPS_MV_STORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "offload/offload.hh"
#include "clib/client.hh"

namespace clio {

/** MV request opcodes. */
enum class MvOp : std::uint8_t {
    kCreate = 0,
    kAppend = 1,
    kReadVersion = 2,
    kReadLatest = 3,
    kDelete = 4,
};

/** Encode an MV request. */
std::vector<std::uint8_t> mvEncode(MvOp op, std::uint64_t object_id = 0,
                                   std::uint64_t version = 0,
                                   const std::string &value = {});

/** The MN-side Clio-MV offload. */
class ClioMvOffload : public Offload
{
  public:
    /**
     * @param value_size fixed value size per version (16 B in Fig. 19).
     * @param max_objects descriptor table capacity.
     * @param max_versions versions per object array.
     */
    ClioMvOffload(std::uint32_t value_size = 16,
                  std::uint32_t max_objects = 4096,
                  std::uint32_t max_versions = 1024);

    void init(OffloadVm &vm) override;
    OffloadResult invoke(OffloadVm &vm,
                         const std::vector<std::uint8_t> &arg) override;

  private:
    struct Descriptor
    {
        std::uint64_t array_addr = 0;
        std::uint64_t latest = 0; ///< latest version number (1-based)
        std::uint64_t in_use = 0;
    };
    static constexpr std::uint64_t kDescBytes = 24;

    OffloadResult create(OffloadVm &vm);
    OffloadResult append(OffloadVm &vm, std::uint64_t id,
                         const std::string &value);
    OffloadResult readVersion(OffloadVm &vm, std::uint64_t id,
                              std::uint64_t version, bool latest);
    OffloadResult destroy(OffloadVm &vm, std::uint64_t id);

    bool readDesc(OffloadVm &vm, std::uint64_t id, Descriptor &desc);
    bool writeDesc(OffloadVm &vm, std::uint64_t id,
                   const Descriptor &desc);

    std::uint32_t value_size_;
    std::uint32_t max_objects_;
    std::uint32_t max_versions_;

    VirtAddr desc_table_ = 0;
    /** Free object ids (offload-local control state). */
    std::vector<std::uint64_t> free_ids_;
};

/** CN-side wrapper around the MV offload. */
class ClioMvClient
{
  public:
    ClioMvClient(ClioClient &client, NodeId mn, std::uint32_t offload_id,
                 std::uint32_t value_size);

    /** @return new object id, or nullopt when the table is full. */
    std::optional<std::uint64_t> create();
    /** Append a new version; value must be exactly value_size bytes.
     * @return the new version number. */
    std::optional<std::uint64_t> append(std::uint64_t id,
                                        const std::string &value);
    std::optional<std::string> readLatest(std::uint64_t id);
    std::optional<std::string> readVersion(std::uint64_t id,
                                           std::uint64_t version);
    bool remove(std::uint64_t id);

  private:
    ClioClient &client_;
    NodeId mn_;
    std::uint32_t offload_id_;
    std::uint32_t value_size_;
};

} // namespace clio

#endif // CLIO_APPS_MV_STORE_HH
