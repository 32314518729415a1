package repro.core

import repro.core.TuckerKernels.FactorData

/** Single entries' δ (Eq. 13) through the batched kernel, for the specs. */
object TreeDelta {

  /** Entry `idx`'s `δ^(n)`, from a [[CoreTree.deltas]] call that holds it
    * alone.
    */
  def of(tree: CoreTree, idx: Array[Int], n: Int, f: FactorData): Array[Double] = {
    val out = Array.fill(f(n)._1)(new Array[Double](CoreTree.Lanes))
    tree.deltas(idx, 0, 1, n, f, tree.laneScratch(), out)
    out.map(_(0))
  }
}
