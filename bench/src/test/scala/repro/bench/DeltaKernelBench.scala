package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CellList, CoreTree, TuckerKernels}
import repro.exp.Harness
import repro.linalg.DenseMatrix
import repro.tensor.CoreTensor

/** The δ kernel (Eq. 13) alone: nanoseconds per δ of [[CoreTree.deltas]],
  * on one thread, for the cores the gated perfbench workloads reach:
  * planted-n3's full 5×5×5 core, approx-n3-j8's full 8×8×8 core and two of
  * its truncated ones (Approx keeps 80 % of the cells per iteration: 263
  * and 169 of 512 after 3 and 5 truncations), and a 4×4×4×4 core. Every
  * lane of a checked chunk is compared with Eq. (13) summed over the cell
  * list. No timing is asserted: the numbers depend on the host.
  */
class DeltaKernelBench extends AnyFunSuite {

  private val shapes = Seq((3, 5, 125), (3, 8, 512), (3, 8, 263), (3, 8, 169), (4, 4, 256))
  private val dim = 1000
  private val entries = 20000
  private val rounds = 7

  /** One shape's tree, factors and entries. */
  private final class Shape(val order: Int, val j: Int, val cells: Int) {
    private val rng = new scala.util.Random(13)
    private val full = CoreTensor.rand(Array.fill(order)(j), 11)
    val core: CoreTensor = full.truncate(Array.fill(full.nnz)(rng.nextDouble()), full.nnz - cells)
    val f: TuckerKernels.FactorData =
      TuckerKernels.factorData(Array.tabulate(order)(k => DenseMatrix.rand(dim, j, 7 + k)))
    val idx: Array[Int] = Array.fill(entries * order)(rng.nextInt(dim))
    val tree: CoreTree = CoreTree(core)
    val s: CoreTree.LaneScratch = tree.laneScratch()
    val out: Array[Array[Double]] = Array.fill(j)(new Array[Double](CoreTree.Lanes))
    var sink = 0.0

    /** Mode `n`'s δ of every entry, in chunks of `Lanes`. */
    def pass(n: Int): Unit = {
      var from = 0
      while (from < entries) {
        tree.deltas(idx, from, math.min(CoreTree.Lanes, entries - from), n, f, s, out)
        sink += out(0)(0)
        from += CoreTree.Lanes
      }
    }
  }

  test("delta kernel: ns per delta on one thread, every lane checked against Eq. (13)") {
    val L = CoreTree.Lanes
    val all = shapes.map { case (order, j, cells) => new Shape(order, j, cells) }
    for (sh <- all) {
      import sh._
      assert(core.nnz == cells)
      // A partial chunk at the end of the entries, in every mode, lane by lane.
      val count = 13
      val from = entries - count
      val cellList = TuckerKernels.coreCells(core)
      for (n <- 0 until order) {
        tree.deltas(idx, from, count, n, f, s, out)
        for (l <- 0 until L) {
          val entry = from + math.min(l, count - 1) // the lanes past the end repeat the last entry
          val e = idx.slice(entry * order, (entry + 1) * order)
          val want = CellList.delta(e, n, f, cellList)
          for (c <- 0 until j) {
            val got = out(c)(l)
            assert(math.abs(got - want(c)) <= 1e-9 * math.max(1.0, math.abs(want(c))),
              s"N=$order J=$j |G|=$cells mode $n lane $l: δ($c) = $got, Eq. (13) gives ${want(c)}")
          }
        }
      }
    }
    // Every shape and mode a few times before any is timed, so that the JIT
    // has compiled the kernel; then the median of `rounds` passes.
    for (_ <- 0 until 3; sh <- all; n <- 0 until sh.order) sh.pass(n)
    val rows = all.map { sh =>
      val ns = (0 until sh.order).map { n =>
        val times = (0 until rounds).map { _ =>
          val t0 = System.nanoTime()
          sh.pass(n)
          (System.nanoTime() - t0).toDouble / entries
        }.sorted
        times(rounds / 2)
      }
      assert(!sh.sink.isNaN)
      f"| ${sh.order} | ${sh.j} | ${sh.cells} | ${ns.map(x => f"$x%.0f").mkString(" / ")} | ${ns.sum / ns.size}%.0f |"
    }
    Harness.emit(s"### delta kernel (Eq. 13), $L entries per call, one thread, $entries entries, I = $dim\n\n" +
      (Seq("| N | J | \\|G\\| | ns per delta, by mode | mean |", "|---|---|---|---|---|") ++ rows).mkString("\n"))
  }
}
