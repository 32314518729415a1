package repro.core

import repro.core.TuckerKernels.{CoreCells, FactorData}

/** The core as a list of cells, each cell's product written out: the
  * reference that specs and the δ kernel bench hold [[CoreTree]]'s kernels
  * against. `TuckerKernels.predict` is the same loop over every mode.
  */
object CellList {

  /** `g · ∏_{k≠skip} a^(k)_{idx_k, cell_k}`, multiplied in ascending mode
    * order; with `skip = n`, one cell's term of δ (Eq. 13).
    */
  def product(idx: Array[Int], cell: Array[Int], g: Double, skip: Int, f: FactorData): Double = {
    var p = g
    var k = 0
    while (k < idx.length) {
      if (k != skip) p *= f(k)._2(idx(k) * f(k)._1 + cell(k))
      k += 1
    }
    p
  }

  /** Eq. (13): entry `idx`'s `δ^(n)`, summed cell by cell. */
  def delta(idx: Array[Int], n: Int, f: FactorData, cells: CoreCells): Array[Double] = {
    val out = new Array[Double](f(n)._1)
    cells.foreach { case (cell, g) => out(cell(n)) += product(idx, cell, g, n, f) }
    out
  }

  /** `Σ (x − x̂)²` over `entries`, the inside of Eq. (6), with `x̂` from
    * `TuckerKernels.predict`.
    */
  def squaredError(entries: Seq[(Array[Int], Double)], f: FactorData, cells: CoreCells): Double =
    entries.map { case (idx, x) => val r = x - TuckerKernels.predict(idx, f, cells); r * r }.sum
}
