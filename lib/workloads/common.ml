module B = Vp_prog.Builder
module Op = Vp_isa.Op

let lcg_step fb x =
  B.alu fb Op.Mul x x (B.K 1103515245);
  B.alu fb Op.Add x x (B.K 12345);
  B.alu fb Op.And x x (B.K 0x3FFFFFFF)

let lcg_draw fb ~dst ~state ~bound =
  lcg_step fb state;
  B.alu fb Op.Rem dst state (B.K bound)

let checksum_mix fb ~acc ~value =
  B.alu fb Op.Mul acc acc (B.K 31);
  B.alu fb Op.Add acc acc (B.V value);
  B.alu fb Op.And acc acc (B.K 0xFFFFFF)

let ballast b ~units =
  assert (units > 0);
  let name i = Printf.sprintf "ballast_%d" i in
  for i = 0 to units - 1 do
    B.func b (name i) ~nargs:1 (fun fb args ->
        let x = args.(0) in
        let t = B.vreg fb in
        let u = B.vreg fb in
        let k = B.vreg fb in
        (* A dozen arithmetic statements whose operators rotate with
           the function index, so the bodies differ structurally. *)
        let ops = [| Op.Add; Op.Xor; Op.Mul; Op.Or; Op.Sub; Op.And |] in
        B.li fb t (i * 37);
        B.li fb u ((i * 101) land 0xFFF);
        for j = 0 to 11 do
          let op = ops.((i + j) mod Array.length ops) in
          B.alu fb op t t (K ((j * 13) + 1));
          B.alu fb op u u (V t)
        done;
        (* A short data-dependent diamond and a tiny loop. *)
        B.if_ fb (Op.Lt, u, K 0)
          (fun () -> B.alu fb Op.Sub u x (V u))
          (fun () -> B.alu fb Op.Add u u (V x));
        B.for_ fb k ~from:(K 0) ~below:(K ((i mod 3) + 2)) (fun () ->
            B.alu fb Op.Shl t t (K 1);
            B.alu fb Op.Xor t t (V k);
            B.alu fb Op.And t t (K 0xFFFFF));
        if i + 1 < units then begin
          let r = B.call fb (name (i + 1)) [ u ] in
          B.alu fb Op.Add u u (V r);
          B.ret fb (Some u)
        end
        else B.ret fb (Some u))
  done;
  name 0
