#include "util/memo.hpp"

#include <cstdio>

#include "util/envelope.hpp"

namespace stellar::util
{

namespace
{

/** Magic first line of a spill file; bump on any layout change. */
constexpr const char *kSpillMagic = "STLRSPL1\n";

std::string
spillFileName(std::uint64_t hash)
{
    return envelope::checksumHex(hash) + ".spill";
}

/** Bound to the entry's key, so a hash-collision file never loads. */
std::string
spillChecksum(const std::string &key, const std::string &body)
{
    return envelope::checksumHex(fnv1a(body, fnv1a(key)));
}

/** Parse the decimal run after `prefix` at `at`; false on mismatch. */
bool
parseSizeLine(const std::string &text, std::size_t &at,
              const char *prefix, std::size_t &value_out)
{
    std::size_t prefix_len = std::char_traits<char>::length(prefix);
    if (text.compare(at, prefix_len, prefix) != 0)
        return false;
    at += prefix_len;
    if (at >= text.size() || text[at] < '0' || text[at] > '9')
        return false;
    std::uint64_t value = 0;
    while (at < text.size() && text[at] >= '0' && text[at] <= '9') {
        value = value * 10 + std::uint64_t(text[at] - '0');
        if (value > (std::uint64_t(1) << 40))
            return false; // absurd length: damaged header
        at++;
    }
    if (at >= text.size() || text[at] != '\n')
        return false;
    at++;
    value_out = std::size_t(value);
    return true;
}

} // namespace

void
MemoCache::setSpill(const std::string &dir,
                    std::uint64_t disk_byte_budget)
{
    std::lock_guard<std::mutex> lock(spill_.mutex);
    spill_.dir = dir;
    spill_.diskBudget = disk_byte_budget;
}

bool
MemoCache::spillEnabled() const
{
    std::lock_guard<std::mutex> lock(spill_.mutex);
    return !spill_.dir.empty();
}

std::string
MemoCache::spillDir() const
{
    std::lock_guard<std::mutex> lock(spill_.mutex);
    return spill_.dir;
}

void
MemoCache::spillStore(const std::string &key,
                      const std::shared_ptr<const void> &payload,
                      const SpillHooks &hooks)
{
    try {
        // Serialize outside the spill mutex: hooks are user code.
        std::string body = hooks.serialize(payload);
        std::string checksum = spillChecksum(key, body);

        std::lock_guard<std::mutex> lock(spill_.mutex);
        if (spill_.dir.empty())
            return;
        std::string path =
                spill_.dir + "/" + spillFileName(fnv1a(key));
        std::string text = kSpillMagic;
        text += "k=" + std::to_string(key.size()) + "\n";
        text += key;
        text += "\np=" + std::to_string(body.size()) + "\n";
        text += body;
        text += "\nc=" + checksum + "\n";
        // Throws on failure, caught below: an unwritable dir is a no-op.
        envelope::writeFileAtomic(path, text, "memo spill");
        // Index the file for disk-budget accounting; an overwrite of
        // the same path (hash collision, or the same key re-spilled)
        // replaces its slot rather than double-counting.
        auto it = spill_.index.find(path);
        if (it != spill_.index.end()) {
            spill_.diskBytes -= it->second->second;
            spill_.order.erase(it->second);
            spill_.index.erase(it);
        }
        spill_.order.emplace_back(path, std::uint64_t(text.size()));
        spill_.index.emplace(path, std::prev(spill_.order.end()));
        spill_.diskBytes += std::uint64_t(text.size());
        spill_.spills++;
        while (spill_.diskBudget > 0 &&
               spill_.diskBytes > spill_.diskBudget &&
               spill_.order.size() > 1) {
            auto &victim = spill_.order.front();
            std::remove(victim.first.c_str());
            spill_.diskBytes -= victim.second;
            spill_.index.erase(victim.first);
            spill_.order.pop_front();
        }
    } catch (...) {
        // Spilling is strictly best-effort: a failure here must never
        // surface to the insert that triggered the eviction.
    }
}

std::shared_ptr<const void>
MemoCache::spillLoad(const std::string &key, std::uint64_t hash,
                     const SpillHooks &hooks, std::uint64_t &bytes_out)
{
    try {
        std::optional<std::string> file;
        {
            std::lock_guard<std::mutex> lock(spill_.mutex);
            if (spill_.dir.empty())
                return nullptr;
            file = envelope::readFile(spill_.dir + "/" +
                                      spillFileName(hash));
        }
        if (!file)
            return nullptr; // never spilled (or already aged out)
        const std::string &text = *file;

        // Validate layout, key identity, and checksum; any damage —
        // truncation, a flipped byte, a hash-collision file for a
        // different key — is silently a miss.
        std::size_t at = 0;
        std::size_t magic_len =
                std::char_traits<char>::length(kSpillMagic);
        if (text.compare(0, magic_len, kSpillMagic) != 0)
            return nullptr;
        at = magic_len;
        std::size_t key_len = 0;
        if (!parseSizeLine(text, at, "k=", key_len))
            return nullptr;
        if (at + key_len > text.size() ||
            text.compare(at, key_len, key) != 0 || key_len != key.size())
            return nullptr;
        at += key_len;
        std::size_t body_len = 0;
        if (at >= text.size() || text[at] != '\n')
            return nullptr;
        at++;
        if (!parseSizeLine(text, at, "p=", body_len))
            return nullptr;
        if (at + body_len > text.size())
            return nullptr;
        std::string body = text.substr(at, body_len);
        at += body_len;
        std::string expected = spillChecksum(key, body);
        if (text.compare(at, 3 + expected.size() + 1,
                         "\nc=" + expected + "\n") != 0)
            return nullptr;

        bytes_out = 0;
        auto payload = hooks.deserialize(body, bytes_out);
        if (payload == nullptr)
            return nullptr;
        std::lock_guard<std::mutex> lock(spill_.mutex);
        spill_.reloads++;
        return payload;
    } catch (...) {
        return nullptr; // a throwing deserializer is a plain miss
    }
}

void
MemoCache::spillWipe()
{
    std::lock_guard<std::mutex> lock(spill_.mutex);
    for (const auto &entry : spill_.order)
        std::remove(entry.first.c_str());
    spill_.order.clear();
    spill_.index.clear();
    spill_.diskBytes = 0;
}

} // namespace stellar::util
