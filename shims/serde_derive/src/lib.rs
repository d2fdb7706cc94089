//! Offline stand-in for `serde_derive`.
//!
//! The workspace only uses serde derives as annotations — nothing is
//! actually serialised through serde (the wire module hand-rolls its
//! encoding).  The sibling `serde` shim blanket-implements its marker
//! traits for every type, so these derives can expand to nothing while
//! keeping every `#[derive(Serialize, Deserialize)]` in the tree compiling.

use proc_macro::TokenStream;

/// No-op `Serialize` derive (the trait is blanket-implemented).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `Deserialize` derive (the trait is blanket-implemented).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
