package repro.core

import repro.core.TuckerKernels.FactorData
import repro.tensor.{CoreEntry, CoreTensor}

import scala.collection.mutable

/** The surviving core cells as a prefix tree over `(j_{N-1}, …, j_0)`: the
  * compressed-sparse-fiber structure Tucker-CSF [20] builds over X, built
  * here over G. Level `k` holds one node per distinct prefix
  * `(j_{N-1}, …, j_k)`, with `ids(k)` its `j_k`. The children of level-`k`
  * node `q` are the level-`(k-1)` nodes `ptr(k)(q) until ptr(k)(q + 1)`;
  * level `N` is one virtual root over all of level `N-1`. The leaves (level
  * 0) are the cells themselves, in `CoreTensor.entries` order, with values
  * `vals`.
  *
  * Contracting the tree with one entry's factor rows costs one multiply per
  * node: `J^N·(1 + 1/J + …)` at full |G|, less as Approx drops cells. δ
  * ([[deltas]]) is contracted for [[CoreTree.Lanes]] entries at a time.
  * Kernels take a per-task working space ([[scratch]], [[laneScratch]]), so
  * the tree itself is immutable and shared by every task of an executor.
  * `dims` are the core's `J_k`.
  */
final class CoreTree private (val order: Int, dims: Array[Int], ids: Array[Array[Int]], ptr: Array[Array[Int]],
                              vals: Array[Double]) extends Serializable {
  import CoreTree.{LaneScratch, Lanes}

  /** The number of cells (leaves). */
  def nnz: Int = vals.length

  /** A task's working space for [[products]]: one double per node above the
    * leaves, which the kernel reads in place.
    */
  def scratch(): Array[Array[Double]] =
    Array.tabulate(order)(k => new Array[Double](if (k == 0) 0 else ids(k).length))

  /** A task's working space for [[deltas]]: per level above the leaves,
    * one array of `Lanes` doubles per node; per mode, one per column of the
    * chunk's factor rows. That is `Lanes` times [[scratch]] plus
    * `Lanes·Σ J_k` doubles.
    */
  def laneScratch(): LaneScratch = new LaneScratch(
    Array.tabulate(order)(k => Array.fill(if (k == 0) 0 else ids(k).length)(new Array[Double](Lanes))),
    dims.map(j => Array.fill(j)(new Array[Double](Lanes))))

  /** Eq. (13) for `count` (1 to [[Lanes]]) entries at once:
    * `δ^(n)_α(j) = Σ_{β: β_n = j} G_β ∏_{k≠n} a^(k)_{i_k β_k}`, written to
    * `out(j)(l)` (`out` holds `J_n` arrays of `Lanes` doubles) for the entry
    * `α = from + l`, whose indices are `idx(α·N until (α+1)·N)`. The lanes
    * from `count` on repeat entry `from + count − 1`.
    *
    * Each lane contracts the tree as one entry would: the levels below `n`
    * are summed bottom-up, each node's children times its factor entry; the
    * levels above are multiplied top-down into prefix products; level `n`
    * joins the two. The lanes run side by side through each level, so a
    * node's value and indices are loaded once per call, and the innermost
    * loop runs over the lanes of one node, which do not depend on each other
    * and sit in one array of their own, so the JIT compiles it to vector
    * instructions. Lane `l`'s floating-point operations, and their order,
    * depend neither on the other lanes nor on `count`, so its δ is the same,
    * bit for bit, as a call that holds its entry alone.
    */
  def deltas(idx: Array[Int], from: Int, count: Int, n: Int, f: FactorData, s: LaneScratch,
             out: Array[Array[Double]]): Unit = {
    gatherRows(idx, from, count, n, f, s.rows)
    val below = lanesBelow(n, s)
    lanePrefixesAbove(n, s)
    var j = 0
    while (j < dims(n)) { java.util.Arrays.fill(out(j), 0.0); j += 1 }
    val p = ptr(n + 1)
    val above = if (n + 1 == order) null else s.nodes(n + 1)
    val idsN = ids(n)
    var q = 0
    while (q < p.length - 1) {
      val ab = if (above == null) null else above(q)
      var c = p(q)
      val end = p(q + 1)
      while (c < end) {
        val o = out(idsN(c))
        var l = 0
        if (below == null) {
          // n = 0: the leaves' values themselves, the same in every lane
          val v = vals(c)
          if (ab == null) while (l < Lanes) { o(l) += v; l += 1 }
          else while (l < Lanes) { o(l) += ab(l) * v; l += 1 }
        } else {
          val bc = below(c)
          if (ab == null) while (l < Lanes) { o(l) += bc(l); l += 1 }
          else while (l < Lanes) { o(l) += ab(l) * bc(l); l += 1 }
        }
        c += 1
      }
      q += 1
    }
  }

  /** Eq. (13) for one entry with indices `idx`: its `δ^(n)`, from a
    * [[deltas]] call that holds it alone, with a scratch of its own. That
    * call still contracts all [[CoreTree.Lanes]] (128) lanes, so this is
    * for rare calls, such as Cache's fallback at a zero factor entry; a
    * task contracts its entries in chunks instead.
    */
  def delta(idx: Array[Int], n: Int, f: FactorData): Array[Double] = {
    val out = Array.fill(dims(n))(new Array[Double](Lanes))
    deltas(idx, 0, 1, n, f, laneScratch(), out)
    out.map(_(0))
  }

  /** Copies, for every mode but `n`, the factor rows of the chunk's entries
    * into `rows(k)`, lane-major: `rows(k)(j)(l) = a^(k)_{i_k j}` of lane
    * `l`'s entry.
    */
  private def gatherRows(idx: Array[Int], from: Int, count: Int, n: Int, f: FactorData,
                         rows: Array[Array[Array[Double]]]): Unit = {
    var l = 0
    while (l < Lanes) {
      val e = (from + math.min(l, count - 1)) * order
      var k = 0
      while (k < order) {
        if (k != n) {
          val (ck, dk) = f(k)
          val off = idx(e + k) * ck
          val r = rows(k)
          var j = 0
          while (j < ck) { r(j)(l) = dk(off + j); j += 1 }
        }
        k += 1
      }
      l += 1
    }
  }

  /** Level `n`'s subtree sums `Σ_{leaves β below} G_β ∏_{m<n} a^(m)_{i_m β_m}`
    * in every lane, node `q`'s lane `l` at `s.nodes(n)(q)(l)`, with
    * `s.nodes(k)` for `0 < k < n` holding the same sums times the node's
    * own factor entry. Null for `n = 0`, whose sums are `vals` in every lane.
    */
  private def lanesBelow(n: Int, s: LaneScratch): Array[Array[Double]] = {
    if (n == 0) return null
    val g0 = s.rows(0)
    val ids0 = ids(0)
    var k = 1
    while (k <= n) {
      val p = ptr(k)
      val cur = s.nodes(k)
      val prev = s.nodes(k - 1)
      val idsK = ids(k)
      val gk = s.rows(k)
      var q = 0
      while (q < p.length - 1) {
        val cq = cur(q)
        java.util.Arrays.fill(cq, 0.0)
        var c = p(q)
        val end = p(q + 1)
        if (k == 1) while (c < end) {
          val v = vals(c)
          val g = g0(ids0(c))
          var l = 0
          while (l < Lanes) { cq(l) += v * g(l); l += 1 }
          c += 1
        } else while (c < end) {
          val pc = prev(c)
          var l = 0
          while (l < Lanes) { cq(l) += pc(l); l += 1 }
          c += 1
        }
        if (k != n) {
          val g = gk(idsK(q))
          var l = 0
          while (l < Lanes) { cq(l) *= g(l); l += 1 }
        }
        q += 1
      }
      k += 1
    }
    s.nodes(n)
  }

  /** Fills `s.nodes(k)` for `n < k < N` with each node's prefix product
    * `∏_{k ≤ m < N} a^(m)_{i_m j_m}` in every lane, as [[prefixesAbove]] does
    * for one entry. A root-level node's prefix is its factor entry itself,
    * which `1.0 · a` equals exactly.
    */
  private def lanePrefixesAbove(n: Int, s: LaneScratch): Unit = {
    var k = order - 1
    while (k > n) {
      val p = ptr(k + 1)
      val parent = if (k + 1 == order) null else s.nodes(k + 1)
      val cur = s.nodes(k)
      val idsK = ids(k)
      val gk = s.rows(k)
      var q = 0
      while (q < p.length - 1) {
        var c = p(q)
        val end = p(q + 1)
        while (c < end) {
          val g = gk(idsK(c))
          val cc = cur(c)
          if (parent == null) System.arraycopy(g, 0, cc, 0, Lanes)
          else {
            val pq = parent(q)
            var l = 0
            while (l < Lanes) { cc(l) = pq(l) * g(l); l += 1 }
          }
          c += 1
        }
        q += 1
      }
      k -= 1
    }
  }

  /** Algorithm 3 line 4: writes `p_β(α) = G_β ∏_k a^(k)_{i_k β_k}` into
    * `out(b)` for each cell `b`, in `CoreTensor.entries` order, and returns
    * their sum, the prediction of Eq. (5).
    */
  def products(idx: Array[Int], f: FactorData, s: Array[Array[Double]], out: Array[Double]): Double = {
    prefixesAbove(idx, 0, f, s)
    val p = ptr(1)
    val above = if (order == 1) null else s(1)
    val (c0, d0) = f(0)
    val off = idx(0) * c0
    val ids0 = ids(0)
    var pred = 0.0
    var q = 0
    while (q < p.length - 1) {
      val pre = if (above == null) 1.0 else above(q)
      var c = p(q)
      val end = p(q + 1)
      while (c < end) {
        val v = pre * d0(off + ids0(c)) * vals(c)
        out(c) = v
        pred += v
        c += 1
      }
      q += 1
    }
    pred
  }

  /** Fills `s(k)` for `n < k < N` with each node's prefix product
    * `∏_{k ≤ m < N} a^(m)_{i_m j_m}` along its path from the root.
    */
  private def prefixesAbove(idx: Array[Int], n: Int, f: FactorData, s: Array[Array[Double]]): Unit = {
    var k = order - 1
    while (k > n) {
      val p = ptr(k + 1)
      val parent = if (k + 1 == order) null else s(k + 1)
      val cur = s(k)
      val idsK = ids(k)
      val (ck, dk) = f(k)
      val off = idx(k) * ck
      var q = 0
      while (q < p.length - 1) {
        val pre = if (parent == null) 1.0 else parent(q)
        var c = p(q)
        val end = p(q + 1)
        while (c < end) { cur(c) = pre * dk(off + idsK(c)); c += 1 }
        q += 1
      }
      k -= 1
    }
  }
}

object CoreTree {

  /** How many entries [[CoreTree.deltas]] contracts at once. A node's lane
    * loops pay their set-up once per call, so wider chunks cost less per
    * entry, up to a point: 256 lanes were not faster than 128 across the
    * shapes `DeltaKernelBench` times, and would double the scratch.
    */
  final val Lanes = 128

  /** [[CoreTree.laneScratch]]: `nodes(k)(q)` holds level `k`'s node `q`,
    * `Lanes` doubles (no nodes for the leaves), `rows(k)(j)` column `j` of
    * the chunk's mode-`k` factor rows.
    */
  final class LaneScratch private[CoreTree] (val nodes: Array[Array[Array[Double]]],
                                             val rows: Array[Array[Array[Double]]])

  /** The cells seen from the top level, mode N−1: cell `b` is the pair of
    * its `j_{N-1}`, `topOf(b)`, and its rest tuple `(j_{N-2}, …, j_0)`, leaf
    * `restOf(b)` of `rest`. `rest` is the (N−1)-mode tree of the cells'
    * distinct rest tuples with unit leaves, so its [[CoreTree.products]]
    * are `u(ρ) = ∏_{k<N−1} a^(k)_{i_k ρ_k}`, one per rest tuple: at most
    * `min(|G|, ∏_{k<N−1} J_k)` of them.
    */
  final case class TopSplit(rest: CoreTree, restOf: Array[Int], topOf: Array[Int]) {
    /** The number of cells. */
    def nnz: Int = restOf.length
  }

  /** `core`'s [[TopSplit]]; `core` has order ≥ 2. */
  def topSplit(core: CoreTensor): TopSplit = {
    val top = core.order - 1
    require(top >= 1, s"a core of order ${core.order} has no rest tuples")
    val restDims = core.dims.take(top)
    // The rest tuple's position in DenseTensor.indices order (mode 0 fastest).
    val key = core.entries.map { e =>
      var l = 0L
      var k = top - 1
      while (k >= 0) { l = l * restDims(k) + e.idx(k); k -= 1 }
      l
    }
    val distinct = key.distinct.sorted
    val rest = distinct.map { l =>
      var r = l
      CoreEntry(Array.tabulate(top) { k => val i = (r % restDims(k)).toInt; r /= restDims(k); i }, 1.0)
    }
    TopSplit(CoreTree(new CoreTensor(restDims, rest)), key.map(java.util.Arrays.binarySearch(distinct, _)),
      core.entries.map(_.idx(top)))
  }

  /** Builds the tree of `core`'s cells. They must be in strictly ascending
    * `DenseTensor.indices` order (mode 0 fastest), as `CoreTensor.rand`,
    * `fromDense` and `truncate` produce them, so that leaf `b` is cell `b`;
    * any other order, a repeated cell or an index outside the core's dims
    * throws an IllegalArgumentException.
    */
  def apply(core: CoreTensor): CoreTree = {
    val order = core.order
    val ids = Array.fill(order)(new mutable.ArrayBuilder.ofInt)
    val first = Array.fill(order)(new mutable.ArrayBuilder.ofInt)
    val counts = new Array[Int](order)
    var prev: Array[Int] = null
    core.entries.zipWithIndex.foreach { case (e, b) =>
      (0 until order).foreach { k =>
        require(e.idx(k) >= 0 && e.idx(k) < core.dims(k),
          s"core cell $b: index ${e.idx(k)} outside [0, ${core.dims(k)}) in mode $k")
      }
      // The highest mode in which the cell leaves the previous one's path.
      var top = order - 1
      if (prev != null) {
        while (top >= 0 && e.idx(top) == prev(top)) top -= 1
        require(top >= 0 && e.idx(top) > prev(top),
          s"core cell $b (${e.idx.mkString(", ")}) does not follow cell ${b - 1} " +
            s"(${prev.mkString(", ")}) in ascending order, mode 0 fastest")
      }
      var k = top
      while (k >= 0) {
        if (k > 0) first(k) += counts(k - 1)
        ids(k) += e.idx(k)
        counts(k) += 1
        k -= 1
      }
      prev = e.idx
    }
    val ptr = Array.tabulate(order + 1) { k =>
      if (k == 0) Array.emptyIntArray
      else if (k == order) Array(0, counts(order - 1))
      else first(k).result() :+ counts(k - 1)
    }
    new CoreTree(order, core.dims, ids.map(_.result()), ptr, core.entries.map(_.value))
  }
}
