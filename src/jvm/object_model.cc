#include "jvm/object_model.hh"

namespace javelin {
namespace jvm {

ObjectModel::ObjectModel(Heap &heap, sim::CpuModel &cpu,
                         const std::vector<ClassInfo> &classes)
    : heap_(heap), cpu_(cpu), classes_(classes)
{
}

std::uint32_t
ObjectModel::objectBytes(const ClassInfo &cls, std::uint32_t array_len) const
{
    if (cls.isArray())
        return alignUp(ClassInfo::arrayBytes(array_len));
    return alignUp(cls.instanceBytes());
}

void
ObjectModel::initObject(Address obj, const ClassInfo &cls,
                        std::uint32_t total_bytes, std::uint32_t array_len)
{
    invalidateView(obj);
    heap_.write32(obj + kClassIdOffset, cls.id);
    heap_.write32(obj + kSizeOffset, total_bytes);
    heap_.write32(obj + kGcBitsOffset, 0);
    heap_.write32(obj + kAuxOffset, array_len);
    heap_.zero(obj + kHeaderBytes, total_bytes - kHeaderBytes);

    // Header store plus cache-line-granular zeroing traffic.
    cpu_.store(obj);
    cpu_.storeBlock(obj + 64, (total_bytes - 1) / 64, 64);
}

void
ObjectModel::copyObject(Address dst, Address src, std::uint32_t bytes)
{
    invalidateView(dst);
    heap_.copyBlock(dst, src, bytes);
    cpu_.copyBlock(dst, src, bytes);
}

void
ObjectModel::setForwarding(Address obj, Address to)
{
    invalidateView(obj);
    heap_.write32(obj + kGcBitsOffset,
                  heap_.read32(obj + kGcBitsOffset) | kForwardedBit);
    heap_.write64(obj + kClassIdOffset, to);
    cpu_.store(obj);
}

Address
ObjectModel::loadForwarding(Address obj)
{
    cpu_.load(obj);
    return heap_.read64(obj + kClassIdOffset);
}

Address
ObjectModel::forwardingRaw(Address obj) const
{
    return heap_.read64(obj + kClassIdOffset);
}

const ObjectView &
ObjectModel::viewSlow(Address obj)
{
    const std::uint32_t id = heap_.read32(obj + kClassIdOffset);
    JAVELIN_ASSERT(id < classes_.size(), "corrupt object header at ", obj);
    const ClassInfo &cls = classes_[id];
    ObjectView v;
    v.obj = obj;
    v.ptr = heap_.ptr(obj);
    v.cls = &cls;
    v.size = heap_.read32(obj + kSizeOffset);
    const std::uint32_t aux = heap_.read32(obj + kAuxOffset);
    v.refs = cls.isRefArray ? aux : (cls.isScalarArray ? 0 : cls.refFields);
    v.scalars =
        cls.isScalarArray ? aux : (cls.isRefArray ? 0 : cls.scalarFields);
    // Evict the runner-up, promote the new decode to MRU.
    view_[1] = view_[0];
    view_[0] = v;
    return view_[0];
}

std::uint32_t
ObjectModel::scalarCountRaw(Address obj) const
{
    const ClassInfo &cls = classOfRaw(obj);
    if (cls.isScalarArray)
        return auxRaw(obj);
    if (cls.isRefArray)
        return 0;
    return cls.scalarFields;
}

} // namespace jvm
} // namespace javelin
